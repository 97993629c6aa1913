//===-- sim/DecisionTree.cpp - DFS frontier over decision sequences -------===//

#include "sim/DecisionTree.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace compass;
using namespace compass::sim;

void DecisionTree::seed(const Prefix &Seed) {
  Trace.clear();
  Totals.clear();
  Frontier = 0;
  Pos = 0;
  SeedLen = Seed.Path.size();
  Exhausted = false;
  for (const Decision &D : Seed.Path) {
    assert(D.Chosen < D.Count && "seed decision out of range");
    assert(D.Limit == D.Chosen + 1 && "seed decisions must be pinned");
    push(D);
  }
}

void DecisionTree::push(Decision D) {
  KindTotals T = pathTotals();
  T[static_cast<size_t>(D.Kind)].add(D.Count);
  D.SchedOrd = Trace.empty() ? 0
                             : Trace.back().SchedOrd +
                                   (Trace.back().Kind == ChoiceKind::Sched);
  Frontier += D.Limit - D.Chosen - 1;
  Trace.push_back(D);
  Totals.push_back(T);
}

unsigned DecisionTree::next(unsigned Count, unsigned Limit, ChoiceKind K) {
  assert(Count >= 1 && "choice with no alternatives");
  assert(Limit >= 1 && Limit <= Count && "enumeration limit out of range");
  if (Pos < Trace.size()) {
    // Replaying the backtracked prefix; the program must be deterministic
    // given the decision sequence. The recorded arity and kind are
    // validated, not the Limit: the node's Limit was fixed (from the
    // restriction state, itself a pure function of the prefix) when the
    // node was created, and may since have been lowered by split()-time
    // donation.
    const Decision &D = Trace[Pos];
    if (D.Count != Count)
      fatalError("nondeterministic replay: decision arity changed");
    if (D.Kind != K)
      fatalError("nondeterministic replay: decision kind changed");
    ++Pos;
    return D.Chosen;
  }
  push({0, Limit, Count, K});
  ++Pos;
  return 0;
}

bool DecisionTree::advance() {
  assert(Pos == Trace.size() && "execution ended mid-replay");
  // Depth-first backtracking: advance the deepest decision that still has
  // an untried alternative this tree owns, discarding everything below it.
  // Seed decisions are pinned (Limit == Chosen + 1), so the loop never
  // advances past the seed prefix. The cursor follows the path's new end,
  // so a repeated advance() (the explorer's skip loop) sees the
  // between-executions state.
  while (Trace.size() > SeedLen) {
    Decision &D = Trace.back();
    if (D.Chosen + 1 < D.Limit) {
      ++D.Chosen;
      --Frontier;
      Pos = Trace.size();
      return true;
    }
    // A popped decision has no untried alternative: Frontier is unchanged.
    Trace.pop_back();
    Totals.pop_back();
  }
  Pos = Trace.size();
  Exhausted = true;
  return false;
}

std::vector<unsigned> DecisionTree::decisions() const {
  std::vector<unsigned> Out;
  Out.reserve(Trace.size());
  for (const Decision &D : Trace)
    Out.push_back(D.Chosen);
  return Out;
}

bool DecisionTree::splittable() const {
  if (Exhausted)
    return false;
  for (size_t I = SeedLen, E = Trace.size(); I != E; ++I)
    if (Trace[I].Chosen + 1 < Trace[I].Limit)
      return true;
  return false;
}

std::vector<DecisionTree::Prefix> DecisionTree::split(size_t MaxDonations) {
  std::vector<Prefix> Out;
  if (Exhausted || MaxDonations == 0)
    return Out;
  // Find the shallowest open choice point: donating there hands off the
  // largest subtrees, which keeps the shared queue coarse-grained.
  for (size_t I = SeedLen, E = Trace.size(); I != E; ++I) {
    Decision &D = Trace[I];
    unsigned Open = D.Limit - D.Chosen - 1;
    if (Open == 0)
      continue;
    unsigned Donate =
        static_cast<unsigned>(std::min<size_t>(Open, MaxDonations));
    // Donate the *highest* alternatives so the donor's remaining range
    // [Chosen, Limit) stays contiguous.
    for (unsigned A = D.Limit - Donate; A != D.Limit; ++A) {
      Prefix P;
      P.Path.assign(Trace.begin(), Trace.begin() + I + 1);
      // Pin every decision of the donated prefix: the recipient owns
      // exactly the subtree below it.
      for (Decision &Pd : P.Path)
        Pd.Limit = Pd.Chosen + 1;
      P.Path.back().Chosen = A;
      P.Path.back().Limit = A + 1;
      Out.push_back(std::move(P));
    }
    D.Limit -= Donate;
    Frontier -= Donate;
    return Out;
  }
  return Out;
}
