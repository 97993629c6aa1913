//===-- sim/Reduction.h - Source-set POR ------------------------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Source-set partial-order reduction over the scheduler's thread-choice
/// points, specialized to the view-based RMC machine (DESIGN.md Sections 8
/// and 12).
///
/// The skeleton is *sleep sets* [Godefroid]: after the explorer finishes
/// the branch that schedules thread t at a choice point, the sibling
/// branches need not re-explore interleavings that merely *delay* t past
/// steps independent of t's pending operation — swapping adjacent
/// independent steps yields the identical machine state. When the DFS takes
/// alternative `Pick` at a `sched` choice point, every alternative j < Pick
/// (already fully explored in sibling branches, in DFS order) is put to
/// *sleep*. A sleeping move wakes as soon as any executed step is dependent
/// on it; if the scheduler is about to run a move that is still asleep, the
/// branch is pruned.
///
/// Source sets upgrade that bookkeeping in three ways.
/// (1) A refined wake relation (rmc::sourceKeepsAsleep): same-location
/// atomic non-SC read/write pairs keep each other asleep, because the
/// commutation is exact for reads-from choices below the sleeping move's
/// history watermark (SleepMove::Ver, stamped at sleep-insert time).
/// (2) A sleeping read/update that *is* eventually scheduled while new
/// messages exist past its watermark executes with a reads-from floor
/// installed on the machine — it enumerates only the genuinely new
/// reads-from options; the stale ones commute back to the explored sibling
/// (Scheduler reports an execution whose restricted option set came up
/// empty as RunResult::RfPruned). (3) Every sched point records a per-
/// alternative skip verdict so the explorer can discard fully-covered
/// sibling subtrees at *advance time*, without burning an execution
/// (Summary::SourcePruned).
///
/// Only sched decisions participate; read-from and CAS-outcome choice
/// points are never pruned by this layer (a restricted re-run only narrows
/// their enumeration: the Limit of ChoiceSource::choose). All state
/// is recomputed online from the decision path on every execution (it is a
/// pure function of the path), so replayed prefixes — including seeded
/// prefixes adopted from another worker — deterministically reconstruct
/// the donor's state; donated prefixes carry a snapshot
/// (DecisionTree::Prefix::Sleep) that the recipient validates against its
/// recomputation.
///
/// A sched point is recorded at its choice and committed — counted, its
/// earlier alternatives put to sleep, the donor snapshot checked — right
/// after the picked thread's resume, or at once when the pick is pruned.
/// So the sleep state at any choice inside a step is the state at the
/// step's loop top, which a copy-on-write snapshot saves as part of
/// Scheduler::Boundary.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_REDUCTION_H
#define COMPASS_SIM_REDUCTION_H

#include "rmc/Footprint.h"
#include "sim/DecisionTree.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace compass::sim {

/// Online source-set state for one explorer (one worker); see file
/// comment. All containers are watermarked/recycled so steady-state
/// executions do not allocate.
class Reduction {
public:
  /// What the scheduler must do with the move it just picked.
  enum class Verdict : uint8_t {
    Run,       ///< Not asleep: execute normally.
    Prune,     ///< Asleep, fully covered: abandon the execution.
    Restricted ///< Asleep with fresh messages past the watermark: execute
               ///< with the reads-from floor restrictLoc()/restrictVer().
  };

  /// Clears the per-execution state; call before each execution.
  void beginExecution();

  /// Hook for a real `sched` choice (arity > 1, not preemption-forced):
  /// records the choice point — its alternatives \p Alts, the schedulable
  /// threads in choice order, each with its pending operation's footprint
  /// and, as Ver, the current history length of that footprint's location;
  /// and each alternative's verdict — and returns the verdict for \p Pick,
  /// the index chosen by the decision tree. It writes no sleep state:
  /// commitChoice() does, once the picked thread has resumed. A Prune
  /// verdict ends the execution at the pick, so it commits at once.
  Verdict onSchedChoice(const std::vector<SleepMove> &Alts, unsigned Pick);

  /// Commits the choice point the last onSchedChoice recorded: counts it,
  /// puts its alternatives before the pick to sleep (stamped with their
  /// history watermarks), and validates the sleep set against the donated
  /// seed snapshot when this is the seeded ordinal. The scheduler calls it
  /// right after the picked thread's resume, so a snapshot taken at any
  /// choice inside the step saves the sleep state of its loop top.
  void commitChoice();

  /// Hook for a forced or singleton schedule (no tree decision recorded):
  /// verdict only — never adds sleeps, because no sibling branch exists at
  /// such a point. \p HistLen is the current history length of the picked
  /// thread's pending location.
  Verdict onSchedule(unsigned Tid, uint32_t HistLen);

  /// Valid right after a Restricted verdict: the reads-from floor the
  /// scheduler must install on the machine for the restricted step.
  rmc::Loc restrictLoc() const { return RestrictL; }
  uint32_t restrictVer() const { return RestrictVer; }

  /// Hook after a machine step by \p Tid with executed footprint \p F:
  /// wakes every sleeping move rmc::sourceKeepsAsleep cannot keep asleep
  /// (the stepping thread's own entry is always dropped — consecutive steps
  /// of one thread never commute).
  void onStepExecuted(unsigned Tid, const rmc::Footprint &F);

  /// Advance-time skip test: true when alternative \p Alt of the
  /// \p Ordinal-th sched point of the last executed path is fully covered
  /// by explored siblings, so the explorer may skip the subtree without
  /// executing it (counted as Summary::SourcePruned). False for unknown
  /// ordinals/alternatives.
  bool skipAlternative(size_t Ordinal, unsigned Alt) const;

  /// Starts the subtree below the seeded (donated) prefix \p P: drops the
  /// previous subtree's sched points and donor snapshot, keeping their
  /// storage, and takes over P's snapshot (P.Sleep, moved out) when
  /// P.HasSleep. Once the recomputed
  /// state reaches sched ordinal P.SleepOrdinal, it is compared against
  /// that snapshot; divergence is fatal (it would mean reduced exploration
  /// depends on the work distribution).
  void seed(DecisionTree::Prefix &P);

  /// Annotates a donated prefix with the sleep state in force after its
  /// final decision. Only prefixes ending in a `sched` decision are
  /// annotated (P.HasSleep is cleared otherwise); recipients of
  /// unannotated prefixes still recompute the correct state, they just
  /// skip the cross-worker validation.
  void annotate(DecisionTree::Prefix &P) const;

  /// The current sleep set (sorted by Tid); exposed for tests.
  const std::vector<SleepMove> &current() const { return Cur; }

  /// The sleep state a copy-on-write snapshot saves, as part of
  /// Scheduler::Boundary: the sleep set and the number of recorded sched
  /// points. Points entries are written once at their sched choice and
  /// never changed afterwards, so a rewind that re-runs the divergent step
  /// recycles the next Points slot naturally.
  struct SleepState {
    std::vector<SleepMove> Cur;
    size_t NumPoints = 0;
  };

  /// Saves the state into \p S (capacity-reusing assignment;
  /// allocation-free at steady state).
  void save(SleepState &S) const {
    S.Cur = Cur;
    S.NumPoints = NumPoints;
  }

  /// Rewinds to \p S (capacity-reusing assignment).
  void restore(const SleepState &S) {
    Cur = S.Cur;
    NumPoints = S.NumPoints;
  }

private:
  const SleepMove *findAsleep(unsigned Tid) const;
  /// The verdict for scheduling the move of sleeping entry \p E while its
  /// location's history is \p HistLen long; Run when E is null. Pure — the
  /// caller publishes the restriction fields for the picked move only.
  Verdict verdictFor(const SleepMove *E, uint32_t HistLen) const;
  static void insertMove(std::vector<SleepMove> &S, unsigned Tid,
                         const rmc::Footprint &Fp, uint32_t Ver);

  /// Snapshot of one sched choice point of the current execution, kept so
  /// split() can annotate donated prefixes ending at any such point and so
  /// the explorer can skip covered alternatives at advance time.
  struct SchedPoint {
    std::vector<SleepMove> Entry; ///< Sleep set before this point's adds.
    std::vector<SleepMove> Alts;  ///< Enabled moves, in choice order.
    std::vector<uint8_t> Skip;    ///< Verdict per alternative.
  };

  std::vector<SleepMove> Cur;     ///< Current sleep set, sorted by Tid.
  std::vector<SchedPoint> Points; ///< [0, NumPoints) valid this execution;
                                  ///< Points[NumPoints] is recorded until
                                  ///< commitChoice() counts it.
  size_t NumPoints = 0;
  unsigned PendingPick = 0; ///< The pick at the recorded point.

  std::vector<SleepMove> Seed; ///< Donor snapshot (sorted by Tid).
  size_t SeedOrdinal = 0;
  bool HasSeed = false;

  rmc::Loc RestrictL = 0;    ///< Floor location of the last Restricted.
  uint32_t RestrictVer = 0;  ///< Floor watermark of the last Restricted.
};

} // namespace compass::sim

#endif // COMPASS_SIM_REDUCTION_H
