//===-- check/Harness.h - Scenario -> Workload instrumentation --*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a Scenario into a sim::Workload the explorer can run: a uniform
/// Container-style adapter instantiates the scenario's library (pristine,
/// or with one seeded lib::Mutation that the library applies itself),
/// per-thread coroutines execute the op lists while recording the
/// observed results, and the workload's Check closure hands every completed
/// execution's event graph plus observations to the reference model
/// (check/RefModel.h), unless the same body already passed the same input.
///
/// Observed-result encoding (Observed::Result):
///  * enq/push: the pushed value on success; 0 when an SPSC tryEnqueue
///    found the ring full; FailRaceVal when ElimStack rounds all failed;
///  * deq/pop/take/steal: the value, EmptyVal, or FailRaceVal (no event);
///  * exchange: the partner's value, or BottomVal on failure.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_CHECK_HARNESS_H
#define COMPASS_CHECK_HARNESS_H

#include "check/RefModel.h"
#include "check/Scenario.h"
#include "lib/ElimStack.h"
#include "lib/Exchanger.h"
#include "lib/HwQueue.h"
#include "lib/MsQueue.h"
#include "lib/SpscRing.h"
#include "lib/TreiberStack.h"
#include "lib/WsDeque.h"
#include "sim/Workload.h"

#include <atomic>
#include <memory>
#include <optional>
#include <variant>

namespace compass::check {

/// Instantiates and drives one scenario's library (pristine or mutated).
/// The library is built inside the adapter, so an adapter constructed into
/// retained storage (RunState::A) allocates nothing itself.
class ContainerAdapter {
public:
  ContainerAdapter(const Scenario &S, Mutation Mut, rmc::Machine &M,
                   spec::SpecMonitor &Mon);
  ContainerAdapter(const ContainerAdapter &) = delete;
  ContainerAdapter &operator=(const ContainerAdapter &) = delete;

  /// Executes one op, returning the observed result (see file comment).
  sim::Task<rmc::Value> apply(sim::Env &E, Op O);

  /// Runs the reference-model pipeline over \p Mon's recorded graph. For
  /// the elimination stack the checked graph is first *derived* from the
  /// base stack's and exchanger's events (spec/Composition.h), into
  /// \p Derived, whose storage is reused (other libraries leave it alone).
  Verdict verdict(const spec::SpecMonitor &Mon,
                  const std::vector<std::vector<Observed>> &Results,
                  spec::LinearizeLimits Limits,
                  graph::EventGraph &Derived) const;

  /// Object id under which the library commits its events (for checks that
  /// want to interrogate the recorded graph directly, e.g. the HW-queue
  /// spec-strength separation test).
  unsigned objId() const { return Obj; }

  /// What the library's operations change outside the machine and the
  /// coroutine frames: the EBR stack's retire bins, the deque's owner and
  /// shadow, the ring's roles (the other libraries keep none). The
  /// copy-on-write body saves it at every snapshot.
  struct OpState {
    sim::Ebr::RetireBins Bins;
    lib::WsDeque::OwnerState Owner;
    lib::SpscRing::Roles Roles;
  };
  void saveOpState(OpState &Out) const;
  void restoreOpState(const OpState &In);

private:
  Lib L;
  /// The library instance, per L.
  std::variant<std::monostate, lib::MsQueue, lib::HwQueue, lib::TreiberStack,
               lib::ElimStack, lib::Exchanger, lib::SpscRing, lib::WsDeque>
      Impl;
  // Exactly one of these points into Impl, per L.
  lib::SimQueue *Q = nullptr;   ///< MsQueue or HwQueue.
  lib::SimStack *Stk = nullptr; ///< TreiberStack, with or without EBR.
  lib::ElimStack *Elim = nullptr;
  lib::Exchanger *Ex = nullptr;
  lib::SpscRing *Ring = nullptr;
  lib::WsDeque *Deq = nullptr;
  unsigned Obj = 0; ///< Object id under which events are committed.
};

/// Writes into \p Key (cleared first) everything ContainerAdapter::verdict
/// reads of one completed execution: \p G's size, which ids are committed,
/// each committed event's kind, V1, V2, ObjId, Thread, CommitIdx and
/// logical view, the so edges in order, and \p Results. Equal keys mean
/// equal inputs, so, for one scenario, mutation and search budget, equal
/// verdicts. The memo keys on the graph's incremental key instead
/// (memoKeyTail); this whole-graph form is the reference tests hold it to.
void verdictKey(const graph::EventGraph &G,
                const std::vector<std::vector<Observed>> &Results,
                std::vector<uint64_t> &Key);

/// Writes into \p Tail (cleared first) the verdict memo key's tail: \p G's
/// size and \p Results, after a header word no record of
/// EventGraph::keyWords() starts with. The memo's key is \p G's key words
/// followed by the tail; it determines verdictKey and is determined by it.
/// Returns the whole key's hash: the tail folded onto G.keyHash().
uint64_t memoKeyTail(const graph::EventGraph &G,
                     const std::vector<std::vector<Observed>> &Results,
                     std::vector<uint64_t> &Tail);

/// The verdict memo (DESIGN.md §7): passing verdicts' keys (a graph's key
/// words plus memoKeyTail's tail), each mapped to its LinAborted bit, in a
/// flat open-addressing table over one key arena. A lookup probes by the
/// key's hash and compares the whole key on a hash match, so a collision
/// costs a comparison, never a wrong verdict.
class VerdictMemo {
public:
  /// The stored LinAborted bit of the key \p G, \p Tail with hash \p Hash,
  /// or nullptr when the key is not stored.
  const bool *find(const graph::EventGraph &G,
                   const std::vector<uint64_t> &Tail, uint64_t Hash) const;

  /// Stores the key (not already stored) with \p LinAborted.
  void insert(const graph::EventGraph &G, const std::vector<uint64_t> &Tail,
              uint64_t Hash, bool LinAborted);

private:
  struct Entry {
    uint64_t Hash = 0;
    size_t Off = 0;     ///< The key's first word in Arena.
    uint32_t Len = 0;   ///< Key words; 0 marks an empty entry.
    bool LinAborted = false;
  };

  /// Doubles the table (at least 64 entries), re-placing every entry.
  void grow();

  std::vector<Entry> Table; ///< A power of two in size, at most half full.
  size_t Count = 0;
  std::vector<uint64_t> Arena; ///< Every stored key, one after another.
};

/// Per-body state shared between the workload closures and the caller;
/// lets the driver read the last execution's verdict after a replay.
struct RunState {
  // S, Mut and Limits must not change once exploration starts: the verdict
  // memo's keys leave them out.
  Scenario S;
  Mutation Mut = Mutation::None;
  spec::LinearizeLimits Limits{200000};

  // Created by the first Setup and kept for the body's lifetime; each
  // execution's Setup rewinds the monitor, rebuilds the adapter in place
  // and clears the results, reusing their storage (DESIGN.md §11).
  std::unique_ptr<spec::SpecMonitor> Mon;
  std::optional<ContainerAdapter> A;
  std::vector<std::vector<Observed>> Results;

  // Written by Check:
  Verdict LastVerdict;
  sim::Scheduler::RunResult LastRun = sim::Scheduler::RunResult::Done;
  /// When set, counts the linearization budget overruns across workers
  /// (see makeWorkload).
  std::shared_ptr<std::atomic<uint64_t>> SharedLinAborts;

  /// The verdict memo (DESIGN.md §7) of passing verdicts. Failures are
  /// never stored. It lives as long as this body (one worker, one
  /// scenario) and is not checkpointed.
  VerdictMemo Memo;
  std::vector<uint64_t> KeyTail; ///< memoKeyTail's buffer, reused.
  uint64_t MemoHits = 0;         ///< Checks answered from Memo.
  /// The elimination stack's derived graph, rebuilt by each verdict in
  /// place (ContainerAdapter::verdict).
  graph::EventGraph Derived;
};

/// Exploration options tuned for \p S (preemption bound from the scenario,
/// a per-scenario execution budget, StopOnViolation off so summaries stay
/// worker-count independent). Verification defaults to the source-set
/// reduction (DESIGN.md Sections 8 and 12); pass ReductionMode::None for
/// an unreduced baseline (e.g. when comparing against pinned fingerprints
/// of unreduced exploration).
sim::Explorer::Options
scenarioOptions(const Scenario &S, uint64_t MaxExecutions, unsigned Workers,
                sim::ReductionMode Red = sim::ReductionMode::SourceSet);

/// A workload whose body is instantiated per worker (safe for parallel
/// exploration). Violations are executions whose reference-model verdict
/// fails, plus races/deadlocks/step-limit runs. When \p LinAborts is
/// non-null it accumulates, across all workers, the executions whose
/// linearization search hit its state budget (verdict unknown, treated as
/// pass).
sim::Workload makeWorkload(const Scenario &S, Mutation Mut,
                           sim::Explorer::Options Opts,
                           std::shared_ptr<std::atomic<uint64_t>> LinAborts =
                               nullptr);

/// A single-body workload that exposes its RunState, for replay +
/// diagnostics (the parallel-safe makeWorkload keeps its states private).
struct Instrumented {
  sim::Workload W;
  std::shared_ptr<RunState> State;
};
Instrumented makeInstrumented(const Scenario &S, Mutation Mut,
                              sim::Explorer::Options Opts);

/// Replays \p Decisions against an instrumented body and reports the
/// run result, the reference-model verdict, and the canonical executed
/// decision sequence (divergence-free replay input).
struct TraceDiagnosis {
  sim::ReplayResult RR;
  sim::Scheduler::RunResult Run = sim::Scheduler::RunResult::Done;
  Verdict V;
  std::vector<unsigned> Executed;

  /// True when the replayed execution violates the property.
  bool failing() const { return !RR.CheckOk; }
};
TraceDiagnosis diagnoseTrace(const Scenario &S, Mutation Mut,
                             sim::Explorer::Options Opts,
                             const std::vector<unsigned> &Decisions);

} // namespace compass::check

#endif // COMPASS_CHECK_HARNESS_H
