//===-- sim/Explorer.h - Stateless model-checking driver --------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The model checker: a stateless (replay-based) explorer of the decision
/// tree formed by every nondeterministic choice of an execution — scheduler
/// picks, load read-from choices, and CAS alternatives. It performs a
/// depth-first enumeration of all decision sequences (up to an execution
/// cap). This is the framework's replacement for the paper's deductive
/// proofs: a property checked over *all* executions of a bounded workload.
///
/// The exploration stack is layered:
///  - DecisionTree (DecisionTree.h): the pure DFS frontier — trace
///    bookkeeping, backtracking, subtree splitting. No I/O; unit-testable.
///  - Explorer (this file): one search worker — binds a DecisionTree to the
///    ChoiceSource interface the Machine/Scheduler consume, and accumulates
///    the Summary (counters, per-kind choice statistics over each
///    execution's whole path, peak frontier, first-violation trace).
///  - Workload / explore / replay (Workload.h): a bounded program as a
///    first-class value, the exploration entry points, and deterministic
///    single-trace replay for counterexample reproduction.
///  - exploreResumable (ParallelExplorer.h): the one exploration loop — N
///    workers, the caller among them, each re-seeding one Explorer from a
///    shared queue of unexplored subtree prefixes; its Summary's
///    deterministic core is bit-identical at any worker count.
///
/// Usage (manual driving; prefer explore()/Workload for the common case):
/// \code
///   Explorer Ex(Opts);
///   while (Ex.beginExecution()) {
///     rmc::Machine M(Ex);
///     Scheduler S(M, Ex);
///     ... allocate, create monitors, start threads ...
///     auto R = S.run(Ex.options().MaxStepsPerExec);
///     Ex.recordCheck(/*Ok=*/...);   // optional: per-execution property
///     Ex.endExecution(R);
///   }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_EXPLORER_H
#define COMPASS_SIM_EXPLORER_H

#include "sim/DecisionTree.h"
#include "sim/Reduction.h"
#include "sim/Scheduler.h"
#include "support/Choice.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace compass::sim {

/// Which state-space reduction the explorer applies (DESIGN.md Sections 8
/// and 12).
enum class ReductionMode {
  None,     ///< Plain exhaustive DFS (the oracle; fingerprint-stable).
  SourceSet ///< Source-set DPOR: sleep sets upgraded with the watermark-
            ///< refined wake relation, restricted re-runs of sleeping
            ///< reads/updates, and advance-time skipping of covered sched
            ///< siblings (sim/Reduction.h).
};

/// How the exploration engine re-establishes state between executions
/// (DESIGN.md Section 11). Functionally invisible: summaries, fingerprints
/// and violation traces are bit-identical across paths.
enum class EnginePath {
  Auto,      ///< Copy-on-write prefix resumption when the workload allows.
  RootReplay ///< Always re-execute from the root (the classic engine; the
             ///< A/B reference for the copy-on-write path).
};

/// Canonical spelling of a ReductionMode ("none" | "source");
/// one vocabulary across the CLI, checkpoints, telemetry, and benchmarks.
const char *reductionModeName(ReductionMode M);
/// Inverse of reductionModeName; false on an unknown spelling.
bool parseReductionMode(const std::string &S, ReductionMode &Out);

/// Explores the decision tree of a bounded concurrent program.
class Explorer : public ChoiceSource {
public:
  struct Options {
    uint64_t MaxExecutions = 2'000'000; ///< Execution cap.
    uint64_t MaxStepsPerExec = 100'000; ///< Scheduler step budget.
    unsigned PreemptionBound = ~0u;     ///< Scheduler preemption budget.
    unsigned Workers = 1; ///< Workers of explore(Workload) and
                          ///< exploreResumable: the caller plus Workers-1
                          ///< threads. exploreSerial, and any
                          ///< StopOnViolation search, runs one.
    bool StopOnViolation = false; ///< Stop at the first failed check, the
                                  ///< lex-least violation: the search runs
                                  ///< at one worker. Truncates the
                                  ///< counters.
    /// State-space reduction; replay always runs unreduced. Keep None when
    /// an execution-count baseline (e.g. a pinned fingerprint comparison
    /// against unreduced exploration) is required.
    ReductionMode Reduction = ReductionMode::None;
    /// Execution engine path; see EnginePath. RootReplay is the A/B
    /// reference used by tests to pin down that copy-on-write resumption
    /// is observationally identical.
    EnginePath Engine = EnginePath::Auto;
  };

  /// Statistics over the choice points of one kind in all explored
  /// executions. Every decision on each execution's path is counted,
  /// replayed, skipped by a copy-on-write resume or fresh, so totals are an
  /// engine- and worker-count-independent measure of search effort per
  /// decision kind.
  using TagStat = DecisionTree::TagStat;

  struct Summary {
    // -- Deterministic core -------------------------------------------
    // Identical for serial and parallel exploration of the same workload
    // (any worker count), provided the run was not truncated by
    // StopOnViolation. Compared by coreEquals().
    uint64_t Executions = 0; ///< Total runs performed.
    uint64_t Completed = 0;  ///< Runs where all threads finished.
    uint64_t Deadlocks = 0;
    uint64_t Races = 0;
    uint64_t Diverged = 0;   ///< Runs cut off by the step budget.
    uint64_t Pruned = 0;     ///< Stutter iterations cut by Env::prune.
    uint64_t SleepPruned = 0; ///< Executions cut by the source-set
                              ///< reduction at an asleep pick.
    uint64_t RfPruned = 0;    ///< Executions cut because a restricted
                              ///< re-run's reads-from set was empty.
    uint64_t SourcePruned = 0; ///< Covered sched siblings skipped at
                               ///< advance time — no execution was run.
    /// Always 0: the reads-from duplicate cache it counted is gone. Kept
    /// declared only for its one reader, perfbench/perfbench.cpp:402.
    uint64_t CacheHits = 0;
    uint64_t Violations = 0; ///< Executions whose check failed.
    bool Exhausted = false;  ///< Whole tree covered.
    uint64_t MaxDepth = 0;   ///< Deepest decision sequence seen.
    bool HasViolation = false;
    /// Decision trace of the lexicographically least violating execution —
    /// which is exactly the first one serial DFS encounters. Feed its
    /// decisions() to replay() to reproduce the failure.
    std::vector<DecisionTree::Decision> FirstViolation;
    /// Choice-point statistics, indexed by ChoiceKind. Listings (JSON,
    /// checkpoints) name each kind and leave out kinds with no choices.
    DecisionTree::KindTotals Tags{};

    // -- Observability (timing-dependent; excluded from coreEquals) ----
    struct Perf {
      // Both 0 on a manually driven Explorer; the entry points set them.
      double WallSeconds = 0;
      double ExecsPerSec = 0;
      uint64_t PeakFrontier = 0; ///< Largest DFS frontier seen (per worker).
      uint64_t PeakQueue = 0;    ///< Largest shared work queue (the root
                                 ///< prefix makes it 1 at one worker).
      uint64_t Donations = 0;    ///< Prefixes donated between workers.
      unsigned Workers = 1;
      // Copy-on-write engine effectiveness (sim/Engine.h). StepsLogical
      // counts every scheduler step of every execution (what root replay
      // would run); StepsExecuted counts the steps actually performed —
      // the gap is the work the snapshot/restore path avoided.
      uint64_t StepsExecuted = 0;
      uint64_t StepsLogical = 0;
      uint64_t CowResumes = 0; ///< Executions resumed from a snapshot.
      uint64_t RootRuns = 0;   ///< Executions run from the root.
    } Perf;

    /// The first violation's decisions as plain indices (replay() input).
    std::vector<unsigned> firstViolationDecisions() const;

    /// True iff the deterministic cores match (all counters, Exhausted,
    /// MaxDepth, per-kind stats, and the first-violation trace).
    bool coreEquals(const Summary &O) const;

    /// Folds \p O's deterministic core into this one (used by the parallel
    /// explorer to aggregate per-worker summaries).
    void mergeCore(const Summary &O);

    std::string str() const;

    /// Machine-readable dump (single JSON object) of the full summary;
    /// consumed by bench/bench_simulator and bench_verification_summary.
    std::string json() const;
  };

  explicit Explorer(Options O);
  Explorer();

  /// Puts the explorer in the state Explorer(\p O) starts in — a fresh
  /// summary and the whole tree to explore — keeping the decision tree's
  /// and the reduction's storage. Used by exploreResumable's workers,
  /// which keep one explorer per thread from call to call. Must be called
  /// between executions.
  void reset(Options O);

  /// Restarts the explorer on exactly the subtree below \p Seed (see
  /// DecisionTree splitting), dropping the previous subtree's tree, donor
  /// sleep snapshot and sched points but keeping their storage; the
  /// summary keeps accumulating, and its Exhausted bit restarts at false
  /// for the new subtree. Used by exploreResumable's workers through
  /// Engine::seed.
  void seed(DecisionTree::Prefix Seed);

  /// Prepares the next execution; false when exploration is finished.
  bool beginExecution();

  /// True while beginExecution() would succeed (frontier nonempty and the
  /// local budget not exhausted). Lets the parallel explorer consult the
  /// global execution budget before committing to an execution.
  bool hasWork() const;

  /// Records the outcome of the current execution's property check. Call
  /// between the scheduler run and endExecution(); without a call the
  /// execution counts as passing.
  void recordCheck(bool Ok);

  /// Reports the result of the current execution and backtracks.
  void endExecution(Scheduler::RunResult R);

  /// Enumerates [0, Limit) but records the decision at the full
  /// unrestricted arity \p Count, keeping a source-set restricted trace
  /// replay-compatible with a reduction-free re-run (sim::replay, the
  /// conformance diagnosis pipeline, corpus traces).
  unsigned choose(unsigned Count, unsigned Limit, ChoiceKind K) override;

  size_t decisionPosition() const override;

  const Options &options() const { return Opts; }
  const Summary &summary() const { return Sum; }

  // -- Copy-on-write engine hooks (sim/Engine.h) -----------------------

  /// Called from choose() right before a *fresh* multi-alternative decision
  /// is appended to the tree (not replaying). NodeIndex is
  /// the decision's index on the path; the engine snapshots the machine's
  /// and the scheduler's state (the sleep state included) so sibling
  /// alternatives of this node can resume here instead of replaying from
  /// the root.
  using SnapshotHook = std::function<void(size_t NodeIndex)>;
  void setSnapshotHook(SnapshotHook H) { SnapHook = std::move(H); }

  /// Jumps the decision-tree replay cursor to \p Pos for an execution
  /// resumed from a snapshot (the skipped decisions were validated when
  /// the snapshot's execution recorded them). endExecution() still counts
  /// them in the per-kind statistics: it counts the whole path.
  void resumeReplayAt(size_t Pos);

  /// The decision sequence of the current (or last) execution; useful for
  /// reporting reproducible counterexamples.
  std::vector<unsigned> currentDecisions() const;

  /// The current decision sequence with kinds and arities.
  const std::vector<DecisionTree::Decision> &currentTrace() const;

  /// Pretty-prints the current decision sequence, one line per decision:
  /// `#3 sched (4 alts) -> 2`.
  std::string formatTrace() const { return formatTrace(currentTrace()); }

  /// Pretty-prints \p Trace (e.g. a Summary's FirstViolation).
  static std::string formatTrace(const std::vector<DecisionTree::Decision> &Trace);

  // -- Work sharing (exploreResumable) --------------------------------

  /// True if split() would donate at least one subtree. Only meaningful
  /// between executions.
  bool splittable() const;

  /// Donates up to \p MaxDonations unexplored subtree prefixes from the
  /// shallowest open choice point; see DecisionTree::split(). When the
  /// source-set reduction is active, each donated prefix is annotated with
  /// the donor's sleep state so the recipient can cross-check its own.
  std::vector<DecisionTree::Prefix> split(size_t MaxDonations);

  /// The source-set reduction driving this explorer, or nullptr when
  /// reduction is off. Hand it to Scheduler::setReduction().
  Reduction *reduction() { return RedEnabled ? &Red : nullptr; }

private:
  Options Opts;
  Summary Sum;
  DecisionTree Tree;
  Reduction Red;
  bool RedEnabled = false;
  /// Whether decision \p D, a donated or freshly advanced alternative, is a
  /// covered sched sibling the explorer may skip without running it
  /// (Summary::SourcePruned). Used by endExecution's
  /// advance loop and by split()'s donation filtering — both must agree
  /// with the serial skip decision for cross-worker fingerprint parity.
  bool skippable(const DecisionTree::Decision &D) const;
  /// Removes skip-marked prefixes from a donation batch, counting them into
  /// this (the donor's) summary — a recipient would otherwise burn an
  /// execution on a subtree serial exploration skips without one.
  void dropSkippedDonations(std::vector<DecisionTree::Prefix> &Out);
  bool InExecution = false;
  bool HasWork = true;
  SnapshotHook SnapHook;
};

} // namespace compass::sim

#endif // COMPASS_SIM_EXPLORER_H
