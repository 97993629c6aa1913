//===-- sim/Engine.h - Copy-on-write execution engine -----------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution engine behind every exploration worker
/// (sim/ParallelExplorer.h): it owns the per-execution state-reset
/// protocol between an Explorer and a Machine/Scheduler pair (DESIGN.md
/// Section 11). An engine belongs to one thread's exploration kit and
/// outlives the calls it serves: each call binds it to the call's body and
/// unbinds it at the end, and the frame arena, the snapshot slots'
/// thread records and the byte stack stay with the engine from call to
/// call.
///
/// Classic stateless model checking re-executes every explored execution
/// from the root, so an execution at depth d costs O(d) machine operations
/// even when it shares a d-1 prefix with its predecessor. This engine
/// instead snapshots the simulation at every fresh multi-alternative
/// decision node and keeps the snapshots on a stack mirroring the DFS
/// path. No step writes state a snapshot saves before the choices inside
/// it are made (Scheduler.h), so a snapshot copies the live state: a
/// Machine::Snap (a level on the machine's per-thread copy stacks, which
/// copy only the threads changed since the previous save, plus an O(1)
/// memory epoch), a Scheduler::Boundary (counters, the loop-top tree
/// position, every thread's record and the reduction's sleep state), the
/// body's client state (Workload::Body::CowSave) and the used bytes of the
/// engine's coroutine frame arena (sim/Task.h), pushed onto one byte stack.
/// When the explorer backtracks to a node, the engine rewinds: memory is
/// trimmed to the node's epoch via the undo logs, the threads changed
/// since the snapshot are copied back, and so is everything else — the
/// frames to the same addresses, so the scheduler's pending handles stay
/// valid. Neither Setup nor any step of the shared prefix runs again; only
/// the divergent suffix executes. A resume right after an execution that
/// stopped at the node's own pick (no step ran since) restores only the
/// scheduler's boundary.
///
/// The engine is observationally identical to root replay: summaries,
/// per-tag statistics (which count each execution's whole path, skipped
/// prefix included), sweep fingerprints and first-violation traces are
/// bit-identical (tests pin this via Options::Engine = RootReplay A/B
/// runs). Any stack/trace mismatch falls back to a root execution, so the
/// copy-on-write path is a pure optimization, never a correctness
/// dependency.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_ENGINE_H
#define COMPASS_SIM_ENGINE_H

#include "sim/Explorer.h"
#include "sim/Workload.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace compass::sim {

/// Drives an explorer's executions over a Machine/Scheduler pair, one
/// seeded subtree after another; see file comment. The caller owns the
/// begin/record/end explorer protocol and loops:
///
/// \code
///   Engine Eng(Ex, M, S);
///   Eng.bind(Body);
///   for (DecisionTree::Prefix P : Subtrees) {
///     Eng.seed(std::move(P));
///     while (Ex.beginExecution()) {
///       Engine::ExecResult R = Eng.runOne();
///       Ex.recordCheck(R.CheckOk);
///       Ex.endExecution(R.Run);
///     }
///   }
///   Eng.unbind();
/// \endcode
class Engine {
public:
  struct ExecResult {
    Scheduler::RunResult Run = Scheduler::RunResult::Done;
    bool CheckOk = true;
  };

  /// An unbound engine over one explorer/machine/scheduler triple, which
  /// must outlive it. Unbind it before it goes.
  Engine(Explorer &Ex, rmc::Machine &M, Scheduler &S);

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// Binds the engine to \p Body for one call, under the explorer's
  /// current options: decides whether the call runs copy-on-write,
  /// installs the explorer's snapshot hook accordingly, sets the
  /// scheduler's preemption bound and reduction hook, turns machine
  /// tracing off and zeroes the counters. \p Body must stay alive until
  /// unbind().
  void bind(Workload::Body &Body);

  /// Ends the call: destroys the last execution's coroutine frames and
  /// drops every snapshot slot's client state, whose type belongs to the
  /// body. The frame arena, the slots' other storage and the byte stack
  /// are kept for the next bind(), which sets the hooks afresh.
  void unbind();

  /// Starts the explorer on the subtree below \p P (Explorer::seed) and
  /// drops the snapshot stack, whose snapshots belong to the previous
  /// subtree; the slots' storage is kept for the new one.
  void seed(DecisionTree::Prefix P);

  /// Runs one execution (the caller's beginExecution() must have returned
  /// true): resumes from the deepest matching snapshot when possible,
  /// otherwise executes from the root.
  ExecResult runOne();

  /// Executions resumed from a snapshot vs. executed from the root since
  /// bind(), for diagnostics and the interpreter microbenchmark.
  uint64_t cowResumes() const { return Resumes; }
  uint64_t rootRuns() const { return Roots; }

  /// Scheduler steps actually executed vs. the logical total a root-replay
  /// engine would have run since bind() (see Explorer::Summary::Perf).
  uint64_t stepsExecuted() const { return StepsExecuted; }
  uint64_t stepsLogical() const { return StepsLogical; }

private:
  /// One snapshot on the DFS-path stack: everything needed to resume the
  /// simulation right before the decision at NodeIndex. Slots are pooled
  /// in a watermarked vector so steady-state exploration reuses their
  /// heap storage (thread records across calls, client state within one)
  /// instead of reallocating.
  struct SnapSlot {
    size_t NodeIndex = 0;
    rmc::Machine::Snap MSnap;
    Scheduler::Boundary SBound;
    std::shared_ptr<void> Client; ///< Body.CowSave state (e.g. monitor).
    /// The frame arena's used bytes, at FrameBytes[FrameOff, +FrameLen).
    size_t FrameOff = 0;
    size_t FrameLen = 0;
  };

  void onSnapshot(size_t NodeIndex);
  void resumeFrom(const SnapSlot &Slot);
  void rootSetup();

  Explorer &Ex;
  rmc::Machine &M;
  Scheduler &S;
  Workload::Body *Body = nullptr; ///< The bound call's body.
  uint64_t MaxSteps = 0;
  bool CowEligible = false;

  std::vector<SnapSlot> Slots; ///< [0, Depth) live; rest retained storage.
  size_t Depth = 0;

  /// Every frame of this engine's executions, root runs included, in every
  /// call it serves.
  detail::FrameArena Frames;
  /// The live slots' frame bytes, one slot after another (the byte stack;
  /// its size is a high-water mark, never shrunk).
  std::vector<unsigned char> FrameBytes;

  uint64_t Resumes = 0;
  uint64_t Roots = 0;
  uint64_t StepsExecuted = 0;
  uint64_t StepsLogical = 0;
};

} // namespace compass::sim

#endif // COMPASS_SIM_ENGINE_H
