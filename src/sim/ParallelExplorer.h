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
/// takes N-1 of them and starts a thread only when none is parked, so
/// concurrent or nested callers never wait on each other; it returns once
/// every helper it took has finished with the call and parked again. The
/// helpers are joined at process exit.
///
/// Protocol: the queue starts with the root (empty) prefix — or, when
/// resuming from a checkpoint (sim/Checkpoint.h), with the snapshot's
/// frontier of pinned prefixes. A worker takes the oldest prefix,
/// re-seeds its engine and explorer with it (Engine::seed), and
/// DFS-enumerates that subtree. Donation is demand-driven: after an
/// execution, a worker whose tree can split donates up to N of its
/// shallowest untried alternatives (DecisionTree::split) when the queued
/// prefixes plus the busy workers number fewer than N — that is, when
/// some worker holds no subtree and has nothing queued for it (never at
/// one worker). The exploration ends once the queue is empty and no
/// worker holds a subtree.
///
/// Determinism guarantee: the donated prefixes partition the decision tree,
/// every decision sequence is enumerated by exactly one worker, and every
/// Summary field in the deterministic core is a sum / max / AND / lex-min
/// over executions — so the aggregated Summary core is **bit-identical at
/// any worker count**, and likewise across any interrupt/resume
/// segmentation (provided the run is not truncated by StopOnViolation or
/// the execution budget).
///
/// StopOnViolation: such a search runs at one worker whatever Workers
/// says, and stops at its first violation. One DFS meets the
/// lexicographically least violating decision sequence first, so the
/// surfaced violation is that one at any Workers setting. Only an
/// uninterrupted DFS keeps that order: resuming such a search from a
/// snapshot is a fatal error.
/// Reproduce the result with replay(W, Summary::firstViolationDecisions()).
/// The remaining counters are still truncation-dependent.
///
/// The global MaxExecutions budget is enforced with a shared atomic ticket
/// counter, so the *number* of executions is the same at any worker count
/// when the budget truncates the search (the particular executions explored
/// then depend on scheduling, and the remaining counters may differ).
///
/// Cooperative interruption (ExploreControl): every worker checks the
/// external stop flag (signal handlers), the wall-clock deadline and the
/// execution-count tripwire before each execution. Once one trips, the
/// workers finish their current execution, return every unexplored
/// remainder to the queue as pinned prefixes (Explorer::drainFrontier),
/// and hand back an ExplorationSnapshot that a later call — at any worker count —
/// resumes to the bit-identical final summary core.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_PARALLELEXPLORER_H
#define COMPASS_SIM_PARALLELEXPLORER_H

#include "sim/Checkpoint.h"
#include "sim/Workload.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

namespace compass::sim {

/// A point-in-time progress sample of a running exploration, delivered to
/// ExploreControl::OnHeartbeat by whichever worker finds it due (the
/// calling thread included), one at a time. Values are sampled with
/// relaxed loads — approximate by design; only the final Summary core is
/// exact.
struct ExploreHeartbeat {
  double WallSeconds = 0;  ///< Wall time since this segment started.
  uint64_t Executions = 0; ///< Total executions incl. any resumed base.
  double ExecsPerSec = 0;  ///< Executions/s over this segment.
  uint64_t QueueSize = 0;  ///< Shared work-queue length right now.
  unsigned BusyWorkers = 0;
  unsigned Workers = 0;
  uint64_t Donations = 0; ///< Prefixes donated between workers so far.

  /// Per-worker progress counters.
  struct WorkerSample {
    uint64_t Execs = 0;    ///< Executions this worker performed.
    uint64_t Donated = 0;  ///< Prefixes this worker donated.
    uint64_t Frontier = 0; ///< Worker's live DFS frontier size.
    uint64_t Depth = 0;    ///< Worker's current decision-path depth.
  };
  std::vector<WorkerSample> PerWorker;
};

/// External control over a resumable exploration. All fields optional; a
/// default-constructed ExploreControl reproduces explore(W).
struct ExploreControl {
  /// Cooperative interrupt, typically set from a SIGINT/SIGTERM handler:
  /// checked by every worker before each execution; once true, workers
  /// finish their in-flight execution and drain into the snapshot.
  const std::atomic<bool> *StopRequested = nullptr;

  /// >0: interrupt once this much wall time (seconds) has elapsed in this
  /// segment (--time-budget / time-based checkpoint cadence).
  double DeadlineSec = 0;

  /// >0: interrupt once the global execution count (including a resumed
  /// snapshot's executed base) reaches this value. The trip point is
  /// approximate — in-flight executions complete — but the snapshot is
  /// exact regardless of where the interrupt lands.
  uint64_t InterruptAtExecs = 0;

  /// >0 with OnHeartbeat set: emit a heartbeat every interval (seconds),
  /// from a worker thread, before one of its executions.
  double HeartbeatIntervalSec = 0;
  std::function<void(const ExploreHeartbeat &)> OnHeartbeat;
};

/// Result of one (possibly interrupted) exploration segment.
struct ExploreResult {
  /// Aggregated summary. When Interrupted, this is the deterministic core
  /// of the executed share (== Snapshot.Partial); when not, it is the
  /// final summary, bit-identical to an uninterrupted run's core.
  Explorer::Summary Sum;

  /// True when the segment was cut short by ExploreControl and unexplored
  /// work remains in Snapshot. False means the exploration finished (the
  /// snapshot is empty) even if an interrupt raced with completion.
  bool Interrupted = false;

  /// The resumable remainder; see sim/Checkpoint.h. Empty unless
  /// Interrupted.
  ExplorationSnapshot Snapshot;
};

/// Explores \p W at W.options().Workers workers (values < 2 mean one; a
/// StopOnViolation search always runs at one): the calling thread runs
/// worker 0 and a parked helper thread runs each further worker (see the
/// file comment). Pass \p Resume to continue a previous segment's snapshot
/// instead of starting at the root (fatal for a StopOnViolation search);
/// the final merged summary core is bit-identical to an uninterrupted run
/// at any worker count and any interrupt/resume segmentation.
ExploreResult exploreResumable(const Workload &W, const ExploreControl &Ctl,
                               const ExplorationSnapshot *Resume = nullptr);

} // namespace compass::sim

#endif // COMPASS_SIM_PARALLELEXPLORER_H
