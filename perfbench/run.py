#!/usr/bin/env python3
"""Checker benchmark: builds perfbench, runs one workload, prints its metrics.

    python3 perfbench/run.py --workload sweep|oracle|hunt --seed N \\
        --seconds S --trace 0|1

Run it from the repository root. It configures and builds the benchmark
program (perfbench/perfbench.cpp plus the checker sources under src/) into
.bench_build/ in Release mode, so assertions are compiled out, and then runs
the workload. The inputs are a function of --seed and --seconds only; each
workload's fixed settings live in perfbench.cpp.

The last line of standard output is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones (untraced run). With
--trace 1 the benchmark runs half the inputs twice, untraced and then
traced, checks that the two agree, and prints the per-layer metrics. A
failed gate prints the result with "correct": false and exits 1. Everything
else goes to standard error and to .bench_out/.

See perfbench/README.md for the workloads, metrics and gates.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "perfbench"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((HERE / "oracle_pins.json").read_text())
UNITS = {m["name"]: m["unit"]
         for kind in ("end_to_end", "per_layer") for m in BENCH[kind]}
SETUP_REPEATS = 60  # Set-up-only launches per run for the setup_s median.


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark program; exits 1 on
    failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(1)


def launch(args):
    """Runs the perfbench program once; returns (parsed JSON, seconds to the
    first exploration call, measured from before the process was spawned)."""
    t_spawn = time.monotonic()
    r = subprocess.run([str(BINARY)] + args, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        log(r.stderr[-4000:])
        log("perfbench: program exited with", r.returncode)
        sys.exit(1)
    res = json.loads(r.stdout.strip().splitlines()[-1])
    return res, res["t_ready"] - t_spawn


def is_hunt(res):
    return "kills" in res["detail"]


def counters(res):
    """Exhausted + truncated counters of an explore run."""
    d = res["detail"]
    return {k: d["exhausted"][k] + d["truncated"][k]
            for k in d["exhausted"] if k not in
            ("max_depth", "peak_frontier", "peak_queue")}


def end_to_end(res, setup):
    t = res["task_ms"]
    return {
        "setup_s": setup,
        "wall_s": res["wall_s"],
        "cpu_s": res["cpu_s"],
        "task_p50_ms": statistics.median(t),
        "task_p90_ms": statistics.quantiles(t, n=10)[8],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def div(a, z):
    return a / z if z else 0.0


def per_layer(plain, traced):
    """Per-layer metrics of a traced run (see README.md)."""
    b = traced["body"]
    d = traced["detail"]
    if is_hunt(traced):
        c = d["search"]
        peak_frontier, peak_queue = c["peak_frontier"], c["peak_queue"]
    else:
        c = counters(traced)
        peak_frontier = max(d["exhausted"]["peak_frontier"],
                            d["truncated"]["peak_frontier"])
        peak_queue = max(d["exhausted"]["peak_queue"],
                         d["truncated"]["peak_queue"])
    span = b["explore_cpu_s"]
    self_s = b["self_s"]
    task_s = sum(traced["task_ms"]) / 1e3
    return {
        "check.verdict.calls": b["check_calls"],
        "check.verdict.done": b["check_done"],
        "check.verdict.s": b["check_s"],
        "check.verdict.ns_per_done": div(b["check_s"] * 1e9, b["check_done"]),
        "check.setup.calls": b["setup_calls"],
        "check.setup.s": b["setup_s"],
        "check.setup.ns_per_call": div(b["setup_s"] * 1e9, b["setup_calls"]),
        "sim.engine.save.calls": b["save_calls"],
        "sim.engine.save.s": b["save_s"],
        "sim.engine.restore.calls": b["restore_calls"],
        "sim.engine.restore.s": b["restore_s"],
        "sim.engine.steps_executed": c["steps_executed"],
        "sim.engine.steps_logical": c["steps_logical"],
        "sim.engine.steps_avoided_frac":
            1 - div(c["steps_executed"], c["steps_logical"]),
        "sim.engine.cow_resumes": c["cow_resumes"],
        "sim.engine.root_runs": c["root_runs"],
        "sim.explore.span_s": span,
        "sim.explore.self_s": self_s,
        "sim.explore.execs": c["executions"],
        "sim.explore.completed": c["completed"],
        "sim.explore.truncated": c["truncated"],
        "sim.explore.useful_frac": div(c["completed"], c["executions"]),
        "sim.explore.ns_per_exec": div(self_s * 1e9, c["executions"]),
        "sim.explore.ns_per_step": div(self_s * 1e9, c["steps_executed"]),
        "sim.explore.peak_frontier": peak_frontier,
        "sim.reduction.sleep_pruned": c["sleep_pruned"],
        "sim.reduction.source_pruned": c["source_pruned"],
        "sim.reduction.rf_pruned": c["rf_pruned"],
        "sim.reduction.cache_hits": c["cache_hits"],
        "sim.parallel.cpu_util": div(span, b["explore_worker_s"]),
        "sim.parallel.idle_s": b["explore_worker_s"] - span,
        "sim.parallel.donations": c["donations"],
        "sim.parallel.peak_queue": peak_queue,
        "check.search.s": traced["search_s"],
        "check.shrink.frac": div(traced["shrink_s"], task_s),
        "check.shrink.candidates": d["shrink_candidates"] if is_hunt(traced)
        else 0,
        "check.gen.s": traced["gen_s"],
        "trace.tracer_s": b["tracer_s"],
        "trace.overhead_frac": traced["wall_s"] / plain["wall_s"] - 1,
    }


def gates(plain, traced):
    """Traced-vs-untraced agreement and the time split of the traced run;
    returns a list of failure messages."""
    fails = []
    if is_hunt(plain):
        k0, k1 = plain["detail"]["kills"], traced["detail"]["kills"]
        bad = sum(a != b for a, b in zip(k0, k1)) + abs(len(k0) - len(k1))
        if bad:
            fails.append(f"{bad} traced hunts differ from huntMutant's kill")
    else:
        if plain["detail"]["fold"] != traced["detail"]["fold"]:
            fails.append("traced run's exhausted-scenario fold differs")
        if plain["workers"] == 1:
            c0, c1 = counters(plain), counters(traced)
            for k in ("executions", "completed", "steps_executed",
                      "cow_resumes", "root_runs"):
                if c0[k] != c1[k]:
                    fails.append(f"trace fidelity: {k} {c0[k]} != {c1[k]}")
    # Children are timed on each thread's CPU clock and the span on the
    # process CPU clock, so no span can hold more closure time than CPU.
    b = traced["body"]
    if b["min_span_raw_self_s"] < 0:
        fails.append("a span's closures took more CPU than the span "
                     f"({b['min_span_raw_self_s']:.3g} s left)")
    return fails


def pin_key(seed, res):
    return f"seed {seed} size {res['size']}"


def pin_gate(name, seed, res):
    """The oracle's pinned fold of its exhausted scenarios, if pinned."""
    if name not in PINS:
        return []
    want = PINS[name].get(pin_key(seed, res))
    if want is None:
        log(f"perfbench: {name} seed {seed}: no pinned fold for this size")
        return []
    got = res["detail"]["lib_folds"]
    return [f"pinned fold differs for {lib}: {got.get(lib)} != {v}"
            for lib, v in want.items() if got.get(lib) != v]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mutation", default=None,
                    help="run the sweep path against this mutated library "
                         "(a test of the correctness gate: must fail)")
    ap.add_argument("--print-pin", action="store_true",
                    help="print the oracle fold pin entry for this run")
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    OUT.mkdir(exist_ok=True)
    name = a.workload
    # A traced run explores its inputs twice (untraced, then traced), so it
    # takes half the inputs to stay near --seconds.
    seconds = a.seconds / 2 if a.trace else a.seconds
    args = [name, "--seed", str(a.seed), "--seconds", str(seconds)]
    if a.mutation:
        args += ["--mutation", a.mutation]

    # Set-up time: median over several set-up-only launches and the run.
    setups = [launch(args + ["--setup-only"])[1]
              for _ in range(0 if a.trace else SETUP_REPEATS)]
    plain, setup = launch(args)
    setups.append(setup)
    if not plain.get("ndebug"):
        log("perfbench: the program was built with assertions enabled")
        sys.exit(1)
    attempted, failed = plain["attempted"], plain["failed"]
    problems = list(plain["failures"])
    pin_fails = pin_gate(name, a.seed, plain)
    failed += len(pin_fails)
    problems += pin_fails
    if a.print_pin:
        print(json.dumps({pin_key(a.seed, plain):
                          plain["detail"]["lib_folds"]}))

    if a.trace:
        spans = OUT / f"{name}-{a.seed}.spans.jsonl"
        traced, _ = launch(args + ["--trace", "--spans", str(spans)])
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems += traced["failures"]
        g = gates(plain, traced)
        failed += len(g)
        problems += g
        metrics = per_layer(plain, traced)
    else:
        traced = None
        metrics = end_to_end(plain, statistics.median(setups))

    record = {"workload": name, "seed": a.seed, "args": args,
              "setups": setups, "problems": problems, "untraced": plain,
              "traced": traced}
    (OUT / f"{name}-{a.seed}-trace{a.trace}.json").write_text(
        json.dumps(record))
    log(f"perfbench: {name} seed {a.seed}: {attempted} tasks "
        f"({len(plain['task_ms'])} latency samples per run), {failed} failed")
    if not is_hunt(plain):
        d = plain["detail"]
        log("  counters of exhausted scenarios (deterministic):",
            json.dumps(d["exhausted"]))
        log("  counters of truncated scenarios (best-effort):",
            json.dumps(d["truncated"]))
    for p in problems[:20]:
        log("  FAIL:", p)
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": UNITS[k]}
                       for k, v in metrics.items()}}
    print(json.dumps(out))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
