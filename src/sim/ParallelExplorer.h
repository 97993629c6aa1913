//===-- sim/ParallelExplorer.h - Multi-worker DFS exploration ---*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exhaustive exploration, the one loop behind explore, exploreSerial and
/// exploreResumable: N workers — the calling thread is worker 0 and N-1
/// parked helper threads run the rest, none at one worker — each running
/// one kit, that is one Explorer (and thus a private DecisionTree),
/// Machine, Scheduler and copy-on-write Engine (sim/Engine.h), fed from
/// one shared FIFO queue of unexplored subtree prefixes.
///
/// Kits: a kit outlives the call. Each thread keeps its idle kits; a
/// worker leases one (built only when the thread has none idle), resets
/// it in place to the call's options, binds its engine to the worker's
/// body, and hands it back unbound when the worker is done. The caller and
/// each parked helper thus keep one kit from call to call, and a call
/// nested in a worker on the same thread (an explore inside a Check)
/// leases a kit of its own. A reset kit starts the call as a new one
/// would, so a summary does not depend on what the thread ran before. A
/// thread keeps its kits' storage — the engine's frame arena, snapshot
/// slots and byte stack, the machine's cells and views, the tree's path —
/// until it exits.
///
/// Helpers: the process keeps one set of parked helper threads. A call
/// (of exploreResumable or runOnHelpers) takes N-1 of them and starts a
/// thread only when none is parked, so concurrent or nested callers never
/// wait on each other; it returns once every helper it took has finished
/// with the call and parked again. The helpers are joined at process exit.
///
/// Protocol: the queue starts with the root (empty) prefix. A worker
/// takes the oldest prefix, re-seeds its engine and explorer with it
/// (Engine::seed), and DFS-enumerates that subtree. Donation is
/// demand-driven: after an execution, a worker whose tree can split
/// donates up to N of its shallowest untried alternatives
/// (DecisionTree::split) when the queued prefixes plus the busy workers
/// number fewer than N — that is, when some worker holds no subtree and
/// has nothing queued for it (never at one worker). The exploration ends
/// once the queue is empty and no worker holds a subtree.
///
/// Who splits a tree: the conformance sweep does not — it hands whole
/// scenarios to the helpers (runOnHelpers) and explores each at one
/// worker. A call with Workers > 1 does: perfbench's `sweep` workload,
/// bench_simulator's scaling rows and the determinism suites of
/// tests/ParallelTest.cpp and tests/ReductionTest.cpp.
///
/// Determinism guarantee: the donated prefixes partition the decision tree,
/// every decision sequence is enumerated by exactly one worker, and every
/// Summary field in the deterministic core is a sum / max / AND / lex-min
/// over executions — so the aggregated Summary core is **bit-identical at
/// any worker count** (provided the run is not truncated by
/// StopOnViolation or the execution budget).
///
/// StopOnViolation: such a search runs at one worker whatever Workers
/// says, and stops at its first violation. One DFS meets the
/// lexicographically least violating decision sequence first, so the
/// surfaced violation is that one at any Workers setting.
/// Reproduce the result with replay(W, Summary::firstViolationDecisions()).
/// The remaining counters are still truncation-dependent.
///
/// The global MaxExecutions budget is enforced with a shared atomic ticket
/// counter, so the *number* of executions is the same at any worker count
/// when the budget truncates the search (the particular executions explored
/// then depend on scheduling, and the remaining counters may differ).
///
/// Cooperative interruption (ExploreControl): every worker with work left
/// checks the external stop flag (signal handlers) and the wall-clock
/// deadline before each execution. Once one trips, the workers finish
/// their current execution and return; the partial summary is marked
/// Interrupted, and a caller that wants the whole result explores the
/// workload again from the root.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_PARALLELEXPLORER_H
#define COMPASS_SIM_PARALLELEXPLORER_H

#include "sim/Workload.h"

#include <atomic>
#include <functional>

namespace compass::sim {

/// External control over an exploration. Both fields optional; a
/// default-constructed ExploreControl reproduces explore(W).
struct ExploreControl {
  /// Cooperative interrupt, typically set from a SIGINT/SIGTERM handler:
  /// checked by every worker with work left before each execution; once
  /// true, workers finish their in-flight execution and return.
  const std::atomic<bool> *StopRequested = nullptr;

  /// >0: interrupt once this much wall time (seconds) has elapsed in this
  /// call (a sweep's --time-budget).
  double DeadlineSec = 0;
};

/// Result of one possibly interrupted exploration.
struct ExploreResult {
  /// Aggregated summary: the final one unless Interrupted, else the
  /// executed share's, which depends on where the interrupt landed.
  Explorer::Summary Sum;

  /// True when ExploreControl cut the exploration short while some worker
  /// still had work left.
  bool Interrupted = false;
};

/// Explores \p W at W.options().Workers workers (values < 2 mean one; a
/// StopOnViolation search always runs at one): the calling thread runs
/// worker 0 and a parked helper thread runs each further worker (see the
/// file comment), checking \p Ctl before each execution.
ExploreResult exploreResumable(const Workload &W, const ExploreControl &Ctl);

/// Runs \p Fn(0) on the calling thread and Fn(1) .. Fn(N-1) on the
/// process's parked helper threads (the ones exploreResumable's workers
/// run on, each keeping its warm kit); returns once all N have returned.
/// N < 2 runs Fn(0) alone and takes no helper. An exception escaping Fn
/// ends the process.
void runOnHelpers(unsigned N, const std::function<void(unsigned Wid)> &Fn);

} // namespace compass::sim

#endif // COMPASS_SIM_PARALLELEXPLORER_H
