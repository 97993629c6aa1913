#!/usr/bin/env bash
# Counts a command's allocation calls.
#
#   scripts/malloc_count.sh <command> [args...]
#
# Builds the LD_PRELOAD counter (scripts/malloc_count.c) in a temporary
# directory, runs the command with it preloaded, and removes the directory
# again. Every process of the command writes one line to standard error
# when it exits:
#
#   malloc_count[<pid>]: malloc=<n> calloc=<n> realloc=<n> free=<n>
#
# The command's own output and exit status pass through unchanged. Works
# from any directory; needs a C compiler (cc, or $CC).
#
# Example: malloc calls per execution of the perfbench oracle workload
# (perfbench prints the execution count in its JSON record):
#
#   scripts/malloc_count.sh .bench_build/perfbench oracle --seed 1 --seconds 5
set -euo pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: $0 <command> [args...]" >&2
  exit 2
fi

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"${CC:-cc}" -O2 -shared -fPIC -o "$tmp/malloc_count.so" "$here/malloc_count.c"

status=0
LD_PRELOAD="$tmp/malloc_count.so${LD_PRELOAD:+:$LD_PRELOAD}" "$@" || status=$?
exit "$status"
