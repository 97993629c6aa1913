#!/usr/bin/env python3
"""CLI contract test for compass_check flag parsing and the corpus.

Pins the strict numeric-flag contract: malformed, signed, overflowing, or
missing values exit 2 and print usage to stderr (pre-fix, strtoull
silently mapped "abc" and "-1" to a number and the sweep ran with
garbage); valid spellings are accepted. A sweep whose scenarios hit the
execution cap says so in its verdict line, its --json report and its
telemetry instead of reading as plain clean. Pins the verdict contract:
two reference sweeps print fixed fingerprint lines, and a sweep's whole
--json report does not depend on --workers. A resume refuses flags that
contradict its checkpoint's configuration. Also pins the
regression corpus: `mutants --seed 1 --emit-corpus` rewrites tests/corpus/
byte for byte, `replay` reproduces every entry, one line each, and refuses
an entry it cannot replay faithfully.
Invoked by ctest as `test_cli <path-to-compass_check>`.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "corpus"
TELEMETRY_REPORT = (Path(__file__).resolve().parent.parent / "scripts" /
                    "telemetry_report.py")
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
    # A zero cap runs no execution and truncates every scenario.
    expect_usage_error("zero max-execs", "sweep", "--max-execs", "0")
    expect_usage_error("mutants zero max-execs", "mutants",
                       "--max-execs", "0")
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
    # Source sets subsume plain sleep sets, so `sleep` names no mode.
    expect_usage_error("removed reduction sleep", "sweep",
                       "--reduction", "sleep")
    expect_usage_error("mutants removed reduction sleep", "mutants",
                       "--reduction", "sleep")
    # Only the canonical lowercase spellings none|source are valid:
    # near-misses must not be silently mapped to a mode.
    expect_usage_error("reduction near-miss sleep-set", "sweep",
                       "--reduction", "sleep-set")
    expect_usage_error("reduction near-miss capitalized", "sweep",
                       "--reduction", "Source")
    # Copy-on-write and root replay give bit-identical results, so the
    # engine path is no sweep flag (ParallelTest checks one against the
    # other).
    expect_usage_error("removed engine flag", "sweep", "--engine", "root")
    p = run("sweep", "--resume", "/nonexistent/ckpt")
    check("missing resume file exits 2 with diagnostic",
          p.returncode == 2 and "cannot read" in p.stderr, p)

    # --- valid spellings still accepted -----------------------------------
    p = run("sweep", "--seed", "3", "--per-lib", "1", "--workers", "1",
            "--max-execs", "2000", "--lib", "ms_queue")
    check("valid sweep runs", p.returncode == 0, p)
    check("valid sweep prints fingerprint", "fingerprint" in p.stdout, p)
    check("exhausted sweep reads as plain clean",
          "(clean)\n" in p.stdout and "incomplete" not in p.stdout, p)

    # A tree cut at the cap leaves its unexplored share unchecked: the
    # verdict stays clean (exit 0) but must say it is incomplete.
    p = run("sweep", "--seed", "3", "--per-lib", "2", "--workers", "1",
            "--max-execs", "1", "--lib", "ms_queue")
    check("truncated sweep exits 0", p.returncode == 0, p)
    check("truncated sweep reads as incomplete",
          "(clean, incomplete (2 truncated))" in p.stdout, p)
    # The machine-readable outputs carry the same count.
    with tempfile.TemporaryDirectory() as td:
        telem = os.path.join(td, "sweep.jsonl")
        p = run("sweep", "--seed", "3", "--per-lib", "2", "--workers", "1",
                "--max-execs", "1", "--lib", "ms_queue", "--json",
                "--telemetry", telem)
        try:
            truncated = json.loads(p.stdout).get("truncated")
        except json.JSONDecodeError:
            truncated = None
        check("truncated sweep --json reports 2 truncated", truncated == 2, p)
        ends = []
        if os.path.exists(telem):
            ends = [r for r in map(json.loads, Path(telem).read_text()
                                   .splitlines())
                    if r.get("kind") == "run_end"]
        check("truncated sweep telemetry run_end reports 2 truncated",
              len(ends) == 1 and ends[0].get("truncated") == 2, p)
        r = subprocess.run([sys.executable, str(TELEMETRY_REPORT), telem],
                           capture_output=True, text=True, timeout=60)
        check("telemetry report shows the truncated count",
              r.returncode == 0 and "truncated 2" in r.stdout, r)

    # The report prints the last heartbeat's per-worker in-flight scenarios
    # and sweep totals, and reads the older per-worker sample shape with
    # "?" for what it lacks.
    with tempfile.TemporaryDirectory() as td:
        telem = Path(td) / "two_heartbeats.jsonl"

        def heartbeat(elapsed, per_worker, scenarios):
            return {"kind": "heartbeat", "elapsed": elapsed, "workers": 2,
                    "execs_per_sec": 100.0,
                    "per_worker": [dict(zip(("lib", "scenario"), w))
                                   if w else {"idle": True}
                                   for w in per_worker],
                    "sweep": {"scenarios": scenarios, "executions": 1234,
                              "truncated": 1}}
        old_shape = {"kind": "heartbeat", "elapsed": 0.5, "lib": "ms_queue",
                     "scenario": 0, "execs_per_sec": 50.0, "queue": 1,
                     "busy": 2, "workers": 2, "donations": 3,
                     "per_worker": [{"execs": 10, "donated": 1,
                                     "frontier": 5, "depth": 3}]}
        telem.write_text("\n".join(json.dumps(r) for r in [
            {"kind": "run_start", "seed": 1, "workers": 2},
            old_shape,
            heartbeat(1.0, [("ms_queue", 3), ("ms_queue", 4)], 3),
            heartbeat(2.0, [("hw_queue", 7), None], 47),
        ]) + "\n")
        r = subprocess.run([sys.executable, str(TELEMETRY_REPORT), str(telem)],
                           capture_output=True, text=True, timeout=60)
        check("telemetry report prints the last heartbeat per worker",
              r.returncode == 0 and
              "worker 0: hw_queue scenario 7" in r.stdout and
              "worker 1: idle" in r.stdout and
              "scenario 3" not in r.stdout and
              "scenarios=47 executions=1,234" in r.stdout and
              "truncated=1" in r.stdout, r)
        telem.write_text(json.dumps(old_shape) + "\n")
        r = subprocess.run([sys.executable, str(TELEMETRY_REPORT), str(telem)],
                           capture_output=True, text=True, timeout=60)
        check("telemetry report reads an older heartbeat with ? for the "
              "missing fields",
              r.returncode == 0 and "worker 0: ? scenario ?" in r.stdout and
              "scenarios=? executions=?" in r.stdout, r)

    # --- verdict contract ---------------------------------------------------
    # Fixed sweeps print fixed fingerprints. A change that alters what any
    # exhausted scenario explores, or which scenarios exhaust, moves them.
    p = run("sweep", "--seed", "1", "--per-lib", "10", "--workers", "4",
            timeout=300)
    check("reference sweep fingerprint (seed 1, per-lib 10)",
          "fingerprint: 0x603b4e3f152fdd33  (clean)\n" in p.stdout, p)
    p = run("sweep", "--seed", "7919", "--per-lib", "5", "--workers", "4",
            "--reduction", "none", "--max-execs", "50000", timeout=300)
    check("unreduced sweep fingerprint (seed 7919, per-lib 5)",
          "fingerprint: 0xeba4cd97ac1768d9  "
          "(clean, incomplete (11 truncated))\n" in p.stdout, p)

    # Each scenario is explored by one worker and folds in scenario order,
    # so the whole report, truncated scenarios' counters included, is the
    # same at any worker count.
    reports = {}
    for workers in ("1", "2", "4"):
        p = run("sweep", "--seed", "1", "--per-lib", "3", "--max-execs",
                "5000", "--lib", "ms_queue", "--lib", "treiber_ebr",
                "--workers", workers, "--json")
        try:
            reports[workers] = json.loads(p.stdout)
        except json.JSONDecodeError:
            reports[workers] = {}
        check(f"small truncating sweep at --workers {workers} runs",
              p.returncode == 0 and
              reports[workers].get("workers") == int(workers), p)
        reports[workers].pop("workers", None)
    check("small sweep truncates a scenario",
          reports["1"].get("truncated", 0) > 0)
    check("sweep --json is identical at --workers 1, 2 and 4 apart from "
          "workers",
          reports["1"] == reports["2"] == reports["4"])

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

    # --- reduction mode spellings -----------------------------------------
    for mode in ("none", "source"):
        p = run("sweep", "--seed", "3", "--per-lib", "1", "--workers", "1",
                "--max-execs", "2000", "--lib", "ms_queue",
                "--reduction", mode)
        check(f"--reduction {mode} accepted", p.returncode == 0, p)
        check(f"--reduction {mode} prints fingerprint",
              "fingerprint" in p.stdout, p)

    # --- resume-mismatch contract -----------------------------------------
    # A checkpoint's folded scenarios are tied to the configuration that
    # produced them. Produce a cadence checkpoint (one is written at each
    # scenario boundary) under explicit flags, then resume with a
    # contradicting one: exit 2 with a diagnostic naming the flag. Resuming
    # without the flags, or with agreeing ones, adopts the recorded
    # configuration and completes.
    with tempfile.TemporaryDirectory() as td:
        ckpt = os.path.join(td, "sweep.ckpt")
        p = run("sweep", "--seed", "3", "--per-lib", "2", "--workers", "1",
                "--max-execs", "2000", "--lib", "ms_queue",
                "--reduction", "none",
                "--checkpoint", ckpt, "--checkpoint-every", "50")
        check("checkpointed sweep runs", p.returncode == 0, p)
        check("cadence checkpoint written", os.path.exists(ckpt), p)
        if os.path.exists(ckpt):
            for flag, value in (("--reduction", "source"), ("--seed", "5"),
                                ("--per-lib", "3"), ("--max-execs", "10"),
                                ("--lib", "hw_queue")):
                p = run("sweep", "--resume", ckpt, flag, value)
                check(f"resume {flag} mismatch exits 2 naming the flag",
                      p.returncode == 2 and
                      f"{flag} {value} contradicts" in p.stderr, p)
            # A checkpoint from the previous grammar (sweep-checkpoint v3,
            # which could embed a half-explored scenario) is refused, and
            # the diagnostic names the wanted version.
            text = Path(ckpt).read_text()
            check("cadence checkpoint is version 4",
                  text.startswith("compass sweep-checkpoint v4\n"))
            old = os.path.join(td, "old.ckpt")
            Path(old).write_text("compass sweep-checkpoint v3" +
                                 text[text.index("\n"):])
            p = run("sweep", "--resume", old)
            check("resume of an old-version checkpoint exits 2",
                  p.returncode == 2 and
                  "want 'compass sweep-checkpoint v4'" in p.stderr, p)
            p = run("sweep", "--resume", ckpt, "--seed", "3", "--per-lib",
                    "2", "--max-execs", "2000", "--lib", "ms_queue",
                    "--reduction", "none")
            check("resume with agreeing flags completes", p.returncode == 0,
                  p)
            p = run("sweep", "--resume", ckpt)
            check("resume without flags completes", p.returncode == 0, p)

    # --- chained time-budget resumes finish -------------------------------
    # Each run finishes the scenario at the head of the fold whatever its
    # budget says, so resuming under the same budget ends within one run
    # per scenario, with the uninterrupted report. Here the last scenario
    # (20,000 executions, tens of ms) outlasts the 1-ms budget: the first
    # run stops in it, and the next runs it at the head.
    with tempfile.TemporaryDirectory() as td:
        ckpt = os.path.join(td, "budget.ckpt")
        sweep = ("--seed", "1", "--per-lib", "5", "--max-execs", "20000",
                 "--lib", "ms_queue")
        ref = run("sweep", *sweep, "--workers", "2", "--json")
        budget = ("--time-budget", "0.001", "--checkpoint", ckpt, "--json")
        p = run("sweep", *sweep, "--workers", "2", *budget)
        runs = 1
        while p.returncode == 3 and runs < 5:
            p = run("sweep", "--resume", ckpt, "--workers", str(1 + runs % 4),
                    *budget)
            runs += 1
        check("budgeted resumes finish within one run per scenario",
              p.returncode == 0, p)
        if ref.returncode == 0 and p.returncode == 0:
            got, want = json.loads(p.stdout), json.loads(ref.stdout)
            got.pop("workers")
            want.pop("workers")
            check("budgeted resumes end with the uninterrupted report",
                  got == want)
        check("a 1-ms budget interrupts the first run", runs > 1)

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

    # A corpus file naming an op its library does not run is a parse
    # error (exit 2) that names the key, not a crashed replay.
    with tempfile.TemporaryDirectory() as td:
        bad = Path(td) / "foreign_op.corpus"
        bad.write_text("lib=ms_queue\nthread=push:1\ndecisions=0\n")
        p = run("replay", str(bad))
        check("replay of a corpus entry with a foreign op exits 2",
              p.returncode == 2 and "thread:" in p.stderr, p)
        # Likewise a capacity the ops would overrun (HwQueue aborts).
        small = Path(td) / "small_cap.corpus"
        small.write_text("lib=hw_queue\ncap=0\nthread=enq:1\nthread=deq\n"
                         "decisions=0\n")
        p = run("replay", str(small))
        check("replay of a corpus entry with too small a cap exits 2",
              p.returncode == 2 and "cap:" in p.stderr, p)

    if failures:
        print(f"\ncli_test FAILED: {len(failures)} check(s)")
        return 1
    print("\ncli_test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
