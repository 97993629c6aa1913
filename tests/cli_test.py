#!/usr/bin/env python3
"""CLI contract test for compass_check flag parsing and the corpus.

Pins the strict numeric-flag contract: malformed, signed, overflowing, or
missing values exit 2 and print usage to stderr (pre-fix, strtoull
silently mapped "abc" and "-1" to a number and the sweep ran with
garbage); valid spellings are accepted. Also pins the regression corpus:
`mutants --seed 1 --emit-corpus` rewrites tests/corpus/ byte for byte, and
`replay` reproduces every entry, one line each. Invoked by ctest as
`test_cli <path-to-compass_check>`.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "corpus"
BIN = None
failures = []


def run(*args, timeout=120):
    return subprocess.run([BIN, *args], capture_output=True, text=True,
                          timeout=timeout)


def check(name, cond, proc=None):
    print(f"  {'PASS' if cond else 'FAIL'}  {name}")
    if not cond:
        failures.append(name)
        if proc is not None:
            sys.stdout.write(f"    exit={proc.returncode}\n"
                             f"    stderr: {proc.stderr[:400]}\n")


def expect_usage_error(name, *args):
    p = run(*args)
    check(name, p.returncode == 2 and "usage:" in p.stderr, p)


def main():
    global BIN
    if len(sys.argv) != 2:
        print("usage: cli_test.py <compass_check binary>", file=sys.stderr)
        return 2
    BIN = sys.argv[1]

    # --- malformed numeric values: exit 2 + usage -------------------------
    expect_usage_error("non-numeric seed", "sweep", "--seed", "abc")
    expect_usage_error("negative seed", "sweep", "--seed", "-1")
    expect_usage_error("overflowing seed", "sweep", "--seed",
                       "99999999999999999999999")
    expect_usage_error("hex per-lib", "sweep", "--per-lib", "0x10")
    expect_usage_error("trailing junk per-lib", "sweep", "--per-lib", "3q")
    expect_usage_error("plus-signed max-execs", "sweep", "--max-execs", "+5")
    expect_usage_error("empty workers", "sweep", "--workers", "")
    expect_usage_error("zero workers", "sweep", "--workers", "0")
    expect_usage_error("float per-lib", "sweep", "--per-lib", "1.5")
    expect_usage_error("missing value", "sweep", "--per-lib")
    expect_usage_error("unsigned overflow per-lib", "sweep", "--per-lib",
                       str(2**64))
    expect_usage_error("mutants non-numeric max-scenarios", "mutants",
                       "--max-scenarios", "many")
    expect_usage_error("negative time budget", "sweep", "--time-budget", "-2")
    expect_usage_error("zero time budget", "sweep", "--time-budget", "0")
    expect_usage_error("non-numeric time budget", "sweep", "--time-budget",
                       "soon")
    expect_usage_error("bad checkpoint-every suffix", "sweep",
                       "--checkpoint-every", "5x")
    expect_usage_error("empty checkpoint-every", "sweep",
                       "--checkpoint-every", "s")
    expect_usage_error("unknown flag", "sweep", "--frobnicate")
    expect_usage_error("unknown command", "frobnicate")
    expect_usage_error("bad lib name", "sweep", "--lib", "no_such_lib")
    expect_usage_error("lib name close miss", "sweep", "--lib", "treiber_ebr ")
    expect_usage_error("bad mutation name", "mutants", "--mut",
                       "ebr_skip_grace")
    expect_usage_error("bad reduction", "sweep", "--reduction", "magic")
    # Only the canonical lowercase spellings none|sleep|source are valid:
    # near-misses must not be silently mapped to a mode.
    expect_usage_error("reduction near-miss sleep-set", "sweep",
                       "--reduction", "sleep-set")
    expect_usage_error("reduction near-miss capitalized", "sweep",
                       "--reduction", "Source")
    expect_usage_error("bad engine", "sweep", "--engine", "cow")
    expect_usage_error("engine near-miss capitalized", "sweep",
                       "--engine", "Auto")
    p = run("sweep", "--resume", "/nonexistent/ckpt")
    check("missing resume file exits 2 with diagnostic",
          p.returncode == 2 and "cannot read" in p.stderr, p)

    # --- valid spellings still accepted -----------------------------------
    p = run("sweep", "--seed", "3", "--per-lib", "1", "--workers", "1",
            "--max-execs", "2000", "--lib", "ms_queue")
    check("valid sweep runs", p.returncode == 0, p)
    check("valid sweep prints fingerprint", "fingerprint" in p.stdout, p)

    p = run("sweep", "--seed", "3", "--per-lib", "1", "--workers", "1",
            "--max-execs", "2000", "--lib", "treiber_ebr", timeout=300)
    check("treiber_ebr sweep runs", p.returncode == 0, p)
    check("treiber_ebr sweep names the library", "treiber_ebr" in p.stdout, p)
    check("treiber_ebr sweep prints fingerprint", "fingerprint" in p.stdout, p)

    p = run("sweep", "--seed", "3", "--per-lib", "1", "--workers", "2",
            "--max-execs", "2000", "--lib", "ms_queue",
            "--time-budget", "30.5")
    check("fractional time budget accepted", p.returncode == 0, p)

    p = run("sweep", "--seed", "3", "--per-lib", "1", "--max-execs", "2000",
            "--lib", "ms_queue", "--checkpoint-every", "1000000")
    check("checkpoint-every execs accepted", p.returncode == 0, p)

    p = run("sweep", "--seed", "3", "--per-lib", "1", "--max-execs", "2000",
            "--lib", "ms_queue", "--checkpoint-every", "900s")
    check("checkpoint-every seconds accepted", p.returncode == 0, p)

    # --- reduction / engine mode spellings --------------------------------
    for mode in ("none", "sleep", "source"):
        p = run("sweep", "--seed", "3", "--per-lib", "1", "--workers", "1",
                "--max-execs", "2000", "--lib", "ms_queue",
                "--reduction", mode)
        check(f"--reduction {mode} accepted", p.returncode == 0, p)
        check(f"--reduction {mode} prints fingerprint",
              "fingerprint" in p.stdout, p)

    for engine in ("auto", "root"):
        p = run("sweep", "--seed", "3", "--per-lib", "1", "--workers", "1",
                "--max-execs", "2000", "--lib", "ms_queue",
                "--engine", engine)
        check(f"--engine {engine} accepted", p.returncode == 0, p)

    # --- resume-mismatch contract -----------------------------------------
    # A checkpoint's executed share is tied to the reduction mode and engine
    # path that produced it. Produce a cadence checkpoint under explicit
    # --reduction sleep / --engine auto, then resume with a contradicting
    # mode: exit 2 with a diagnostic naming both modes. Resuming without
    # the flags adopts the recorded modes and completes.
    with tempfile.TemporaryDirectory() as td:
        ckpt = os.path.join(td, "sweep.ckpt")
        p = run("sweep", "--seed", "3", "--per-lib", "1", "--workers", "1",
                "--max-execs", "2000", "--lib", "ms_queue",
                "--reduction", "sleep", "--engine", "auto",
                "--checkpoint", ckpt, "--checkpoint-every", "50")
        check("checkpointed sweep runs", p.returncode == 0, p)
        check("cadence checkpoint written", os.path.exists(ckpt), p)
        if os.path.exists(ckpt):
            p = run("sweep", "--resume", ckpt, "--reduction", "source")
            check("resume reduction mismatch exits 2",
                  p.returncode == 2 and "contradicts" in p.stderr, p)
            p = run("sweep", "--resume", ckpt, "--engine", "root")
            check("resume engine mismatch exits 2",
                  p.returncode == 2 and "contradicts" in p.stderr, p)
            p = run("sweep", "--resume", ckpt)
            check("resume without mode flags completes", p.returncode == 0, p)

    # --- regression corpus ------------------------------------------------
    # The committed corpus is exactly what the seed-1 campaign emits: a
    # change to a library, the generator or the shrinker that moves a kill
    # shows up here as a byte diff.
    corpus = sorted(CORPUS.glob("*.corpus"))
    check("corpus directory found", len(corpus) > 0)
    with tempfile.TemporaryDirectory() as td:
        p = run("mutants", "--seed", "1", "--emit-corpus", td)
        check("mutants --emit-corpus runs", p.returncode == 0, p)
        check("emitted corpus has the committed file names",
              sorted(os.listdir(td)) == [f.name for f in corpus], p)
        for f in corpus:
            out = Path(td) / f.name
            check(f"emitted {f.name} matches byte for byte",
                  out.exists() and out.read_bytes() == f.read_bytes())

    p = run("replay", *[str(f) for f in corpus])
    check("replay of the corpus exits 0", p.returncode == 0, p)
    lines = p.stdout.splitlines()
    check("replay prints one reproduced line per entry",
          len(lines) == len(corpus) and
          all(": reproduced [" in line for line in lines), p)

    if failures:
        print(f"\ncli_test FAILED: {len(failures)} check(s)")
        return 1
    print("\ncli_test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
