//===-- sim/DecisionTree.h - DFS frontier over decision sequences -*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pure search-state half of the model checker: a depth-first frontier
/// over the tree formed by every nondeterministic decision of an execution.
/// It owns no I/O and drives no machine — it only answers "which alternative
/// next?" (replaying a backtracked prefix, then extending with first-choice
/// defaults), backtracks between executions, and can *split* its frontier
/// into independently explorable subtree prefixes for work sharing between
/// parallel workers.
///
/// A tree may be *seeded* with a fixed prefix of decisions: the prefix is
/// replayed at the start of every execution and is never backtracked past,
/// so a seeded tree enumerates exactly the subtree rooted at that prefix.
/// Splitting donates the untried alternatives of the shallowest still-open
/// choice point as seeded prefixes; the donor keeps the alternatives below.
/// Together these give the invariant the parallel explorer relies on: the
/// set of decision sequences enumerated by a tree equals the disjoint union
/// of the sequences enumerated after any series of splits.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_DECISIONTREE_H
#define COMPASS_SIM_DECISIONTREE_H

#include "rmc/Footprint.h"
#include "support/Choice.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace compass::sim {

/// One sleeping scheduler move: a thread together with the footprint of its
/// pending operation at the time it was put to sleep. Used by the source-set
/// partial-order reduction (sim/Reduction.h) and carried inside donated
/// DecisionTree prefixes so parallel work donation can cross-check the
/// reduction state a recipient worker recomputes.
struct SleepMove {
  unsigned Tid = 0;
  rmc::Footprint Fp;
  /// Reads-from watermark: the length of Fp.L's write history when the move
  /// was put to sleep. A sleeping read/update scheduled later may only read
  /// messages appended at or after this length (older reads-from choices
  /// commute back to the already-explored sibling that ran the move first).
  uint32_t Ver = 0;

  bool operator==(const SleepMove &O) const {
    return Tid == O.Tid && Fp == O.Fp && Ver == O.Ver;
  }
};

/// Depth-first frontier over the decision tree of a bounded program.
class DecisionTree {
public:
  /// One node on the current path.
  struct Decision {
    unsigned Chosen; ///< Alternative taken on the current path.
    unsigned Limit;  ///< Exclusive bound of alternatives this tree owns.
    unsigned Count;  ///< Total arity observed at this choice point.
    ChoiceKind Kind; ///< What the decision resolves.
    /// Sched decisions before this one on the path: a sched decision's
    /// ordinal among the path's sched decisions, which correspond 1:1, in
    /// order, to the reduction's recorded choice points
    /// (sim/Reduction.h). Set when the tree records or is seeded with the
    /// decision, and carried by the prefixes it donates.
    uint32_t SchedOrd = 0;
  };

  /// Statistics over decisions of one kind: how many, the sum of their
  /// arities and the largest one.
  struct TagStat {
    uint64_t Choices = 0; ///< Decisions of this kind.
    uint64_t AltSum = 0;  ///< Sum of their arities.
    unsigned MaxArity = 0;

    /// Counts one decision of arity \p Count.
    void add(unsigned Count) {
      ++Choices;
      AltSum += Count;
      MaxArity = std::max(MaxArity, Count);
    }

    /// Adds \p O's decisions to these.
    void merge(const TagStat &O) {
      Choices += O.Choices;
      AltSum += O.AltSum;
      MaxArity = std::max(MaxArity, O.MaxArity);
    }

    double avgArity() const {
      return Choices ? static_cast<double>(AltSum) / Choices : 0.0;
    }

    bool operator==(const TagStat &) const = default;
  };

  /// Per-kind statistics, indexed by ChoiceKind.
  using KindTotals = std::array<TagStat, NumChoiceKinds>;

  /// An unexplored subtree, produced by split(): a decision prefix that a
  /// fresh DecisionTree can be seeded with, plus an optional snapshot of
  /// the sleep-set reduction state at the prefix's final decision.
  ///
  /// The sleep snapshot is *redundant* for correctness — sleep state is a
  /// pure function of the decision path, so a recipient worker recomputes
  /// it while replaying the seed — but carrying it lets the recipient
  /// validate its recomputation against the donor's (fatal on divergence),
  /// which pins down the worker-count independence of reduced exploration.
  struct Prefix {
    std::vector<Decision> Path;

    /// Sleep set in force immediately after the final decision of Path was
    /// taken (sorted by Tid). Valid only when HasSleep.
    std::vector<SleepMove> Sleep;
    /// Which sched choice point the snapshot belongs to: the ordinal of
    /// the final decision among the sched decisions of Path.
    size_t SleepOrdinal = 0;
    /// Set when the final decision of Path is a sched choice and the donor
    /// ran with the sleep-set reduction enabled.
    bool HasSleep = false;
  };

  DecisionTree() = default;

  /// Seeds the tree with a fixed \p Seed prefix; enumeration covers exactly
  /// the subtree below it.
  explicit DecisionTree(const Prefix &Seed) { seed(Seed); }

  /// Restarts the tree on the subtree below \p Seed, as the constructor
  /// would, keeping the path's storage.
  void seed(const Prefix &Seed);

  /// Resets the replay cursor; call before each execution.
  void beginExecution() { Pos = 0; }

  /// Replay-cursor position: the number of decisions resolved so far in
  /// the current execution.
  size_t position() const { return Pos; }

  /// Jumps the replay cursor to \p P, for a copy-on-write resume that
  /// skipped the decisions before a snapshot boundary. The cursor then
  /// re-consumes the recorded path from \p P (through the advanced
  /// divergence decision) before extending; advance()'s path-consumed
  /// invariant still checks the execution reached the end of the trace.
  void resumeAt(size_t P) {
    if (P > Trace.size())
      P = Trace.size();
    Pos = P;
  }

  /// Resolves the next decision of the current execution: replays the
  /// backtracked prefix (fatal unless \p Count and \p K match the recorded
  /// decision), then extends the path with alternative 0. A fresh node
  /// enumerates only alternatives in [0, Limit) while recording arity
  /// \p Count (see ChoiceSource::choose).
  unsigned next(unsigned Count, unsigned Limit, ChoiceKind K);

  /// True while the replay cursor is inside the recorded path (the program
  /// is deterministic up to here).
  bool replaying() const { return Pos < Trace.size(); }

  /// Backtracks after a finished execution: advances the deepest decision
  /// with an untried alternative, discarding everything below it. Returns
  /// false when the (sub)tree is exhausted.
  bool advance();

  bool exhausted() const { return Exhausted; }

  /// Depth of the current path (including any seed prefix).
  size_t depth() const { return Trace.size(); }

  const std::vector<Decision> &trace() const { return Trace; }

  /// The decision sequence of the current path, as plain indices.
  std::vector<unsigned> decisions() const;

  /// Number of untried alternatives hanging off the current path — the DFS
  /// frontier size. Kept as the path changes, so O(1).
  uint64_t frontierSize() const { return Frontier; }

  /// Per-kind totals of the path's decisions, kept per depth as the path
  /// changes, so O(1).
  const KindTotals &pathTotals() const {
    static const KindTotals None{};
    return Totals.empty() ? None : Totals.back();
  }

  /// True if split() would produce at least one donation.
  bool splittable() const;

  /// Donates up to \p MaxDonations untried alternatives from the
  /// *shallowest* open choice point (largest subtrees first, preserving
  /// load balance), removing them from this tree's frontier. Each returned
  /// prefix seeds a DecisionTree that enumerates a disjoint subtree. Must
  /// only be called between executions (after advance(), before the next
  /// beginExecution()).
  std::vector<Prefix> split(size_t MaxDonations);

private:
  /// Appends \p D to the path, setting its SchedOrd and the per-depth
  /// totals and frontier count it adds.
  void push(Decision D);

  std::vector<Decision> Trace;
  std::vector<KindTotals> Totals; ///< Totals[I] covers Trace[0..I].
  uint64_t Frontier = 0;          ///< See frontierSize().
  size_t Pos = 0;
  size_t SeedLen = 0;
  bool Exhausted = false;
};

} // namespace compass::sim

#endif // COMPASS_SIM_DECISIONTREE_H
