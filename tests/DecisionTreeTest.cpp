//===-- tests/DecisionTreeTest.cpp - DFS frontier unit tests --------------===//
//
// Unit tests for the pure search-state half of the model checker: replay /
// extend / backtrack bookkeeping, seeded subtree enumeration, and the
// splitting invariant the parallel explorer relies on — the set of decision
// sequences enumerated by a tree equals the disjoint union of the sequences
// enumerated after any series of splits.
//
//===----------------------------------------------------------------------===//

#include "sim/DecisionTree.h"
#include "sim/Reduction.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <vector>

using namespace compass;
using namespace compass::sim;

namespace {

/// A deterministic "program" for the tree to search: given the decisions
/// taken so far, returns the arity of the next choice point, or 0 when the
/// execution ends. This stands in for Machine+Scheduler.
using Program = std::function<unsigned(const std::vector<unsigned> &)>;

/// Runs one execution of \p P against \p T.
void runOne(DecisionTree &T, const Program &P) {
  T.beginExecution();
  std::vector<unsigned> Path;
  for (;;) {
    unsigned Arity = P(Path);
    if (Arity == 0)
      break;
    Path.push_back(T.next(Arity, Arity, ChoiceKind::Load));
  }
}

/// Enumerates every execution of \p P in tree \p T; returns the leaves in
/// visit order.
std::vector<std::vector<unsigned>> enumerate(DecisionTree T,
                                             const Program &P) {
  std::vector<std::vector<unsigned>> Leaves;
  if (T.exhausted())
    return Leaves;
  for (;;) {
    runOne(T, P);
    Leaves.push_back(T.decisions());
    if (!T.advance())
      break;
  }
  EXPECT_TRUE(T.exhausted());
  return Leaves;
}

/// Enumerates \p P while randomly splitting off subtrees, exploring the
/// donated prefixes recursively. Collects all leaves (in scrambled order).
void enumerateWithSplits(DecisionTree T, const Program &P, Rng &R,
                         std::vector<std::vector<unsigned>> &Out) {
  if (T.exhausted())
    return;
  for (;;) {
    runOne(T, P);
    Out.push_back(T.decisions());
    bool More = T.advance();
    if (!More)
      break;
    if (T.splittable() && R.chance(1, 3)) {
      for (DecisionTree::Prefix &Pre :
           T.split(static_cast<size_t>(1 + R.below(3))))
        enumerateWithSplits(DecisionTree(std::move(Pre)), P, R, Out);
    }
  }
}

/// Uniform tree: \p Arities[d] alternatives at depth d.
Program uniform(std::vector<unsigned> Arities) {
  return [Arities = std::move(Arities)](const std::vector<unsigned> &Path) {
    return Path.size() < Arities.size() ? Arities[Path.size()] : 0u;
  };
}

/// A lopsided program: the first decision (3 alternatives) selects how deep
/// the rest of the execution is, so subtree sizes differ per branch.
unsigned lopsided(const std::vector<unsigned> &Path) {
  if (Path.empty())
    return 3;
  unsigned Depth = 1 + Path[0]; // branch b gets b+1 further decisions
  if (Path.size() <= Depth)
    return 2;
  return 0;
}

} // namespace

TEST(DecisionTreeTest, EnumeratesUniformTreeInLexOrder) {
  auto Leaves = enumerate(DecisionTree(), uniform({2, 3, 2}));
  ASSERT_EQ(Leaves.size(), 12u);
  EXPECT_EQ(Leaves.front(), (std::vector<unsigned>{0, 0, 0}));
  EXPECT_EQ(Leaves.back(), (std::vector<unsigned>{1, 2, 1}));
  EXPECT_TRUE(std::is_sorted(Leaves.begin(), Leaves.end()));
  EXPECT_EQ(std::set<std::vector<unsigned>>(Leaves.begin(), Leaves.end())
                .size(),
            12u);
}

TEST(DecisionTreeTest, EnumeratesLopsidedTree) {
  // Branch 0: 2^1 leaves, branch 1: 2^2, branch 2: 2^3 -> 14 total.
  auto Leaves = enumerate(DecisionTree(), lopsided);
  EXPECT_EQ(Leaves.size(), 14u);
  EXPECT_TRUE(std::is_sorted(Leaves.begin(), Leaves.end()));
}

TEST(DecisionTreeTest, ReplayCursorTracksRecordedPrefix) {
  DecisionTree T;
  runOne(T, uniform({2, 2}));
  EXPECT_EQ(T.depth(), 2u);
  EXPECT_EQ(T.frontierSize(), 2u); // one untried alternative per level
  ASSERT_TRUE(T.advance());
  // After backtracking, the retained prefix replays and the last decision
  // advanced to its sibling.
  T.beginExecution();
  EXPECT_TRUE(T.replaying());
  EXPECT_EQ(T.next(2, 2, ChoiceKind::Load), 0u);
  EXPECT_EQ(T.next(2, 2, ChoiceKind::Load), 1u);
  EXPECT_FALSE(T.replaying());
}

TEST(DecisionTreeTest, AdvanceMovesCursorToPathEnd) {
  // Regression: advance() left the replay cursor at the old end of the
  // path, so after an advance() that popped decisions the explorer's skip
  // loop (a repeated advance()) ran mid-replay.
  auto P = uniform({3, 2});
  DecisionTree T;
  runOne(T, P);
  ASSERT_TRUE(T.advance()); // bumps the leaf: {0, 1}
  EXPECT_EQ(T.position(), T.depth());
  runOne(T, P);
  ASSERT_TRUE(T.advance()); // pops the leaf, bumps the root: {1}
  ASSERT_EQ(T.decisions(), (std::vector<unsigned>{1}));
  EXPECT_EQ(T.position(), T.depth());
  // A skipped sibling is advanced past without an execution.
  ASSERT_TRUE(T.advance());
  EXPECT_EQ(T.decisions(), (std::vector<unsigned>{2}));
  EXPECT_EQ(T.position(), T.depth());
}

TEST(DecisionTreeTest, AdvanceDiscardsExhaustedSuffix) {
  DecisionTree T;
  runOne(T, uniform({2, 1, 2}));
  ASSERT_TRUE(T.advance());
  EXPECT_EQ(T.decisions(), (std::vector<unsigned>{0, 0, 1}));
  ASSERT_TRUE(T.advance());
  // Depth-2 and depth-1 nodes exhausted; the root advances and the suffix
  // is discarded.
  EXPECT_EQ(T.decisions(), (std::vector<unsigned>{1}));
  runOne(T, uniform({2, 1, 2}));
  ASSERT_TRUE(T.advance());
  EXPECT_EQ(T.decisions(), (std::vector<unsigned>{1, 0, 1}));
  runOne(T, uniform({2, 1, 2}));
  EXPECT_FALSE(T.advance());
  EXPECT_TRUE(T.exhausted());
}

TEST(DecisionTreeTest, SeededTreeEnumeratesExactlyItsSubtree) {
  auto P = uniform({3, 2, 2});
  // Build the seed for subtree {1, *, *} the way split() would: pinned
  // decisions.
  DecisionTree::Prefix Seed;
  Seed.Path = {{1, 2, 3, ChoiceKind::Load}};
  auto Leaves = enumerate(DecisionTree(std::move(Seed)), P);
  ASSERT_EQ(Leaves.size(), 4u);
  for (const auto &L : Leaves) {
    ASSERT_EQ(L.size(), 3u);
    EXPECT_EQ(L[0], 1u);
  }
  EXPECT_EQ(Leaves.front(), (std::vector<unsigned>{1, 0, 0}));
  EXPECT_EQ(Leaves.back(), (std::vector<unsigned>{1, 1, 1}));
}

TEST(DecisionTreeTest, SplitDonatesShallowestAlternativesAndKeepsPath) {
  DecisionTree T;
  runOne(T, uniform({3, 2}));
  ASSERT_TRUE(T.advance()); // path {0,1}
  ASSERT_TRUE(T.splittable());
  auto Donated = T.split(8);
  // Shallowest open node is the root (alternatives 1 and 2 untried).
  ASSERT_EQ(Donated.size(), 2u);
  EXPECT_EQ(Donated[0].Path.back().Chosen, 1u);
  EXPECT_EQ(Donated[1].Path.back().Chosen, 2u);
  for (const auto &Pre : Donated) {
    EXPECT_EQ(Pre.Path.size(), 1u);
    EXPECT_EQ(Pre.Path.back().Limit, Pre.Path.back().Chosen + 1);
    EXPECT_EQ(Pre.Path.back().Count, 3u);
  }
  // The donor keeps its current path and no longer owns the donated
  // alternatives.
  EXPECT_EQ(T.decisions(), (std::vector<unsigned>{0, 1}));
  EXPECT_FALSE(T.splittable());
  // Donor finishes just its remaining branch.
  runOne(T, uniform({3, 2}));
  EXPECT_FALSE(T.advance());
}

TEST(DecisionTreeTest, SplitRespectsDonationCap) {
  DecisionTree T;
  runOne(T, uniform({4}));
  ASSERT_TRUE(T.advance()); // path {1}; untried {2, 3}
  auto Donated = T.split(1);
  ASSERT_EQ(Donated.size(), 1u);
  // The highest alternative goes first so the donor's range stays
  // contiguous.
  EXPECT_EQ(Donated[0].Path.back().Chosen, 3u);
  EXPECT_TRUE(T.splittable()); // alternative 2 still owned by the donor
}

TEST(DecisionTreeTest, SplittingPartitionsTheLeafSet) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Rng R(Seed);
    std::vector<std::vector<unsigned>> Split;
    enumerateWithSplits(DecisionTree(), lopsided, R, Split);
    auto Serial = enumerate(DecisionTree(), lopsided);
    ASSERT_EQ(Split.size(), Serial.size()) << "seed " << Seed;
    std::sort(Split.begin(), Split.end());
    // Serial DFS enumerates in sorted (lexicographic) order already.
    EXPECT_EQ(Split, Serial) << "seed " << Seed;
  }
}

TEST(DecisionTreeTest, SplittingPartitionsUniformTreeLeafSet) {
  auto P = uniform({2, 3, 2, 2});
  auto Serial = enumerate(DecisionTree(), P);
  ASSERT_EQ(Serial.size(), 24u);
  for (uint64_t Seed = 11; Seed <= 14; ++Seed) {
    Rng R(Seed);
    std::vector<std::vector<unsigned>> Split;
    enumerateWithSplits(DecisionTree(), P, R, Split);
    std::sort(Split.begin(), Split.end());
    EXPECT_EQ(Split, Serial) << "seed " << Seed;
  }
}

namespace {

/// A write footprint for the prefix-annotation tests below.
rmc::Footprint writeFp(rmc::Loc L) {
  rmc::Footprint F;
  F.L = L;
  F.K = rmc::Footprint::Kind::Write;
  return F;
}

/// The alternatives of a sched point: thread I of \p Fps, pending
/// footprint Fps[I], at history length 0.
std::vector<SleepMove> alts(const std::vector<rmc::Footprint> &Fps) {
  std::vector<SleepMove> Out;
  for (unsigned I = 0; I != Fps.size(); ++I)
    Out.push_back(SleepMove{I, Fps[I], 0});
  return Out;
}

/// Feeds \p Red one sched point and its step's commit, as the scheduler
/// does around the picked thread's resume; returns the pick's verdict.
Reduction::Verdict schedStep(Reduction &Red,
                             const std::vector<rmc::Footprint> &Fps,
                             unsigned Pick) {
  const Reduction::Verdict V = Red.onSchedChoice(alts(Fps), Pick);
  if (V != Reduction::Verdict::Prune)
    Red.commitChoice();
  return V;
}

/// Drives one donor execution of a two-level, arity-3, sched-only
/// program against \p T while feeding \p Red the hooks exactly as the
/// scheduler would: choice, the chosen thread's step and its commit, then
/// the step's wake-ups.
void runSchedExecution(DecisionTree &T, Reduction &Red,
                       const std::vector<rmc::Footprint> &Fps) {
  T.beginExecution();
  Red.beginExecution();
  for (int Level = 0; Level != 2; ++Level) {
    unsigned Pick = T.next(3, 3, ChoiceKind::Sched);
    ASSERT_EQ(schedStep(Red, Fps, Pick), Reduction::Verdict::Run);
    Red.onStepExecuted(Pick, Fps[Pick]);
  }
}

} // namespace

TEST(DecisionTreeTest, SplitPrefixCarriesSleepSnapshotAndReseeds) {
  // Three threads writing the same cell: pairwise *dependent* moves, so
  // sleeps put in place at a choice point survive the subsequent step and
  // the snapshot is non-trivial.
  std::vector<rmc::Footprint> Fps = {writeFp(7), writeFp(7), writeFp(7)};

  DecisionTree T;
  Reduction Red;
  runSchedExecution(T, Red, Fps);
  ASSERT_TRUE(T.advance()); // path {0,1}; root alternatives 1,2 open
  auto Donated = T.split(8);
  ASSERT_EQ(Donated.size(), 2u);
  for (DecisionTree::Prefix &P : Donated)
    Red.annotate(P);

  // Donated prefix {1}: alternative 0 was fully explored before it, so it
  // sleeps; prefix {2} additionally has alternative 1 asleep.
  ASSERT_TRUE(Donated[0].HasSleep);
  EXPECT_EQ(Donated[0].SleepOrdinal, 0u);
  EXPECT_EQ(Donated[0].Sleep, (std::vector<SleepMove>{{0, Fps[0]}}));
  ASSERT_TRUE(Donated[1].HasSleep);
  EXPECT_EQ(Donated[1].SleepOrdinal, 0u);
  EXPECT_EQ(Donated[1].Sleep,
            (std::vector<SleepMove>{{0, Fps[0]}, {1, Fps[1]}}));

  // Round-trip: a recipient re-seeds its tree from the donated prefix and
  // recomputes the sleep state while replaying; the recomputation must
  // agree with the carried snapshot (validated when the step commits) and
  // leave the recipient with exactly the donor's sleep set.
  for (size_t I = 0; I != Donated.size(); ++I) {
    std::vector<SleepMove> Snapshot = Donated[I].Sleep;
    unsigned Chosen = Donated[I].Path.back().Chosen;

    Reduction R2;
    R2.seed(Donated[I]);
    EXPECT_TRUE(Donated[I].Sleep.empty()) << "seed() takes the snapshot";
    DecisionTree T2(std::move(Donated[I]));
    T2.beginExecution();
    R2.beginExecution();
    EXPECT_TRUE(T2.replaying());
    unsigned Pick = T2.next(3, 3, ChoiceKind::Sched);
    EXPECT_EQ(Pick, Chosen);
    // The replayed pick is never itself asleep, and the recomputed state
    // matches the donor's snapshot bit for bit.
    EXPECT_EQ(schedStep(R2, Fps, Pick), Reduction::Verdict::Run);
    EXPECT_EQ(R2.current(), Snapshot);
  }
}

TEST(DecisionTreeTest, ReseedDropsThePreviousSubtreesSeedAndPoints) {
  std::vector<rmc::Footprint> Fps = {writeFp(7), writeFp(7), writeFp(7)};

  // A first subtree whose donor snapshot (nothing asleep after pick 0)
  // the next subtree's replay would contradict (pick 2 recomputes {0, 1}).
  Reduction R;
  DecisionTree::Prefix First;
  First.Path = {{0, 1, 3, ChoiceKind::Sched}};
  First.HasSleep = true;
  R.seed(First);
  R.beginExecution();
  ASSERT_EQ(schedStep(R, Fps, 0), Reduction::Verdict::Run);

  // Re-seeding with an unannotated prefix forgets both the snapshot (no
  // validation, so no fatal divergence) and the recorded sched point (no
  // annotation of a drained prefix from the stale point).
  DecisionTree::Prefix Second;
  Second.Path = {{2, 3, 3, ChoiceKind::Sched}};
  R.seed(Second);
  DecisionTree::Prefix Drained = Second;
  R.annotate(Drained);
  EXPECT_FALSE(Drained.HasSleep);
  R.beginExecution();
  EXPECT_EQ(schedStep(R, Fps, 2), Reduction::Verdict::Run);
  EXPECT_EQ(R.current(), (std::vector<SleepMove>{{0, Fps[0]}, {1, Fps[1]}}));
}

TEST(DecisionTreeTest, AnnotateSkipsPrefixesNotEndingInSchedDecisions) {
  std::vector<rmc::Footprint> Fps = {writeFp(7), writeFp(7), writeFp(7)};

  Reduction Red;
  Red.beginExecution();
  ASSERT_EQ(schedStep(Red, Fps, 2), Reduction::Verdict::Run); // sleeps {0, 1}

  // A prefix ending in a read-from decision must not be annotated: pruning
  // is only sound at thread-choice points.
  DecisionTree::Prefix P;
  P.Path = {{2, 3, 3, ChoiceKind::Sched}, {1, 2, 2, ChoiceKind::Load}};
  P.HasSleep = true; // Stale value; annotate() must clear it.
  Red.annotate(P);
  EXPECT_FALSE(P.HasSleep);
  EXPECT_TRUE(P.Sleep.empty());

  // An empty prefix (root donation) is likewise left unannotated.
  DecisionTree::Prefix Root;
  Root.HasSleep = true;
  Red.annotate(Root);
  EXPECT_FALSE(Root.HasSleep);
}

TEST(DecisionTreeTest, ASchedPointWritesNoSleepStateBeforeItsCommit) {
  // A copy-on-write snapshot taken at a choice inside a step saves the
  // reduction's live state, so recording the step's sched point must leave
  // that state as it was at the step's loop top.
  std::vector<rmc::Footprint> Fps = {writeFp(7), writeFp(7), writeFp(7)};
  Reduction Red;
  Red.beginExecution();
  Reduction::SleepState Live;
  ASSERT_EQ(Red.onSchedChoice(alts(Fps), 2), Reduction::Verdict::Run);
  Red.save(Live);
  EXPECT_TRUE(Red.current().empty());
  EXPECT_EQ(Live.NumPoints, 0u);
  Red.commitChoice();
  Red.save(Live);
  EXPECT_EQ(Red.current(), (std::vector<SleepMove>{{0, Fps[0]}, {1, Fps[1]}}));
  EXPECT_EQ(Live.NumPoints, 1u);

  // A pruned pick ends the execution at the pick, so its point commits at
  // once: the explorer's advance-time skip reads it, and the alternative
  // before the pick goes to sleep.
  const std::vector<SleepMove> Next = {{3, writeFp(9), 0}, {1, Fps[1], 0}};
  ASSERT_EQ(Red.onSchedChoice(Next, 1), Reduction::Verdict::Prune);
  Red.save(Live);
  EXPECT_EQ(Live.NumPoints, 2u);
  EXPECT_TRUE(Red.skipAlternative(1, 1));
  EXPECT_FALSE(Red.skipAlternative(1, 0));
  EXPECT_EQ(Red.current(), (std::vector<SleepMove>{
                               {0, Fps[0]}, {1, Fps[1]}, {3, writeFp(9)}}));
}

#if GTEST_HAS_DEATH_TEST
TEST(DecisionTreeDeathTest, DivergentSleepSeedIsFatal) {
  // A recipient whose recomputed sleep state disagrees with the donated
  // snapshot must abort: silent divergence would make reduced exploration
  // depend on the work distribution.
  std::vector<rmc::Footprint> Fps = {writeFp(7), writeFp(7), writeFp(7)};
  Reduction R;
  DecisionTree::Prefix P;
  P.Path = {{2, 3, 3, ChoiceKind::Sched}};
  P.Sleep = {{1, Fps[1]}}; // Donor claims only thread 1 sleeps...
  P.HasSleep = true;
  R.seed(P);
  R.beginExecution();
  // ...but committing pick 2 recomputes {0, 1}.
  ASSERT_EQ(R.onSchedChoice(alts(Fps), 2), Reduction::Verdict::Run);
  EXPECT_DEATH(R.commitChoice(), "diverged");
}

TEST(DecisionTreeDeathTest, ArityChangeDuringReplayIsFatal) {
  DecisionTree T;
  runOne(T, uniform({2, 2}));
  ASSERT_TRUE(T.advance());
  T.beginExecution();
  EXPECT_DEATH(T.next(3, 3, ChoiceKind::Load), "nondeterministic replay");
}

TEST(DecisionTreeDeathTest, KindChangeDuringReplayIsFatal) {
  // A seeded prefix whose kinds do not match the program (say, a checkpoint
  // whose sched decisions were relabelled) must not replay as if they did.
  DecisionTree::Prefix Seed;
  Seed.Path = {{1, 2, 3, ChoiceKind::Sched}};
  DecisionTree T(std::move(Seed));
  T.beginExecution();
  EXPECT_DEATH(T.next(3, 3, ChoiceKind::Load), "decision kind changed");
}
#endif

namespace {

/// Recounts what DecisionTree keeps per path change and compares: the
/// frontier size, each decision's sched ordinal and the path's per-kind
/// totals.
void expectKeptValuesMatchRecount(const DecisionTree &T,
                                  const std::string &Where) {
  const std::vector<DecisionTree::Decision> &Path = T.trace();
  uint64_t Frontier = 0;
  uint32_t Sched = 0;
  DecisionTree::KindTotals Totals{};
  for (size_t I = 0; I != Path.size(); ++I) {
    const DecisionTree::Decision &D = Path[I];
    Frontier += D.Limit - D.Chosen - 1;
    ASSERT_EQ(D.SchedOrd, Sched) << Where << ", decision " << I;
    Sched += D.Kind == ChoiceKind::Sched;
    Totals[static_cast<size_t>(D.Kind)].add(D.Count);
  }
  ASSERT_EQ(T.pathTotals(), Totals) << Where;
  ASSERT_EQ(T.frontierSize(), Frontier) << Where;
}

} // namespace

TEST(DecisionTreeProperty, KeptScansMatchARecountAfterEveryCall) {
  // Random trees driven through next, advance, split, seed and resumeAt.
  // Each execution replays the recorded path (the same arities and kinds,
  // as a deterministic program would) and extends it with random choice
  // points; between executions the test sometimes donates, and
  // sometimes continues on a tree seeded with one of the donations.
  constexpr ChoiceKind Kinds[] = {ChoiceKind::Cas, ChoiceKind::Load,
                                  ChoiceKind::LoadWhere, ChoiceKind::Sched};
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Rng R(Seed);
    DecisionTree T;
    std::vector<DecisionTree::Prefix> Donated;
    for (unsigned Exec = 0; Exec != 60 && !T.exhausted(); ++Exec) {
      const std::string Where =
          "seed " + std::to_string(Seed) + ", execution " +
          std::to_string(Exec);
      T.beginExecution();
      if (R.chance(1, 3) && T.depth() != 0)
        T.resumeAt(R.below(T.depth() + 1));
      expectKeptValuesMatchRecount(T, Where + ", begin");
      while (T.position() < T.depth()) {
        const DecisionTree::Decision D = T.trace()[T.position()];
        T.next(D.Count, D.Count, D.Kind);
        expectKeptValuesMatchRecount(T, Where + ", replay");
      }
      const unsigned Fresh = static_cast<unsigned>(R.below(5));
      for (unsigned I = 0; I != Fresh; ++I) {
        const unsigned Count = static_cast<unsigned>(R.range(2, 4));
        const unsigned Limit = static_cast<unsigned>(R.range(1, Count));
        T.next(Count, Limit, Kinds[R.below(4)]);
        expectKeptValuesMatchRecount(T, Where + ", next");
      }
      T.advance();
      expectKeptValuesMatchRecount(T, Where + ", advance");
      if (R.chance(1, 3) && T.splittable()) {
        for (DecisionTree::Prefix &P : T.split(R.range(1, 3)))
          Donated.push_back(std::move(P));
        expectKeptValuesMatchRecount(T, Where + ", split");
      }
      if (R.chance(1, 6) && !Donated.empty()) {
        T = DecisionTree(std::move(Donated.back()));
        Donated.pop_back();
        expectKeptValuesMatchRecount(T, Where + ", seed");
      }
    }
  }
}
