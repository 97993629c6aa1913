//===-- sim/Explorer.cpp - Stateless model-checking driver ----------------===//

#include "sim/Explorer.h"

#include "support/Error.h"
#include "support/Json.h"

#include <algorithm>
#include <cassert>

using namespace compass;
using namespace compass::sim;

const char *sim::reductionModeName(ReductionMode M) {
  switch (M) {
  case ReductionMode::None:
    return "none";
  case ReductionMode::SourceSet:
    return "source";
  }
  return "none";
}

bool sim::parseReductionMode(const std::string &S, ReductionMode &Out) {
  if (S == "none")
    Out = ReductionMode::None;
  else if (S == "source")
    Out = ReductionMode::SourceSet;
  else
    return false;
  return true;
}

Explorer::Explorer(Options O)
    : Opts(O), RedEnabled(O.Reduction == ReductionMode::SourceSet) {}

Explorer::Explorer() : Explorer(Options{}) {}

void Explorer::reset(Options O) {
  assert(!InExecution && "reset mid-execution");
  Opts = O;
  RedEnabled = O.Reduction == ReductionMode::SourceSet;
  Sum = Summary();
  seed(DecisionTree::Prefix());
}

void Explorer::seed(DecisionTree::Prefix Seed) {
  assert(!InExecution && "seed mid-execution");
  // Consume the donor's sleep snapshot; the reduction validates its
  // recomputed state against it when replay reaches the seeded ordinal.
  Red.seed(Seed);
  Tree.seed(Seed);
  HasWork = true;
  Sum.Exhausted = false;
}

bool Explorer::hasWork() const {
  return HasWork && !Tree.exhausted() && Sum.Executions < Opts.MaxExecutions;
}

bool Explorer::beginExecution() {
  assert(!InExecution && "beginExecution without matching endExecution");
  if (!hasWork())
    return false;
  Tree.beginExecution();
  if (RedEnabled)
    Red.beginExecution();
  InExecution = true;
  return true;
}

unsigned Explorer::choose(unsigned Count, unsigned Limit, ChoiceKind K) {
  assert(InExecution && "choice outside an execution");
  assert(Count >= 1 && "choice with no alternatives");
  assert(Limit >= 1 && Limit <= Count && "enumeration limit out of range");

  // A fresh multi-enumerable node is a potential backtrack target: let
  // the copy-on-write engine snapshot the pre-decision state so sibling
  // alternatives resume here. Replayed nodes (including the pinned seed)
  // already have their snapshots from the execution that created them.
  // Limit == 1 nodes (a restricted set collapsed to one alternative) are
  // never advance()/split() targets, so they need no snapshot.
  if (SnapHook && Limit > 1 && !Tree.replaying())
    SnapHook(Tree.position());

  return Tree.next(Count, Limit, K);
}

size_t Explorer::decisionPosition() const { return Tree.position(); }

void Explorer::resumeReplayAt(size_t Pos) {
  assert(InExecution && "resumeReplayAt outside an execution");
  Tree.resumeAt(Pos);
}

const std::vector<DecisionTree::Decision> &Explorer::currentTrace() const {
  return Tree.trace();
}

std::vector<unsigned> Explorer::currentDecisions() const {
  const auto &Trace = currentTrace();
  std::vector<unsigned> Out;
  Out.reserve(Trace.size());
  for (const DecisionTree::Decision &D : Trace)
    Out.push_back(D.Chosen);
  return Out;
}

namespace {

bool traceLexLess(const std::vector<DecisionTree::Decision> &A,
                  const std::vector<DecisionTree::Decision> &B) {
  return std::lexicographical_compare(
      A.begin(), A.end(), B.begin(), B.end(),
      [](const DecisionTree::Decision &X, const DecisionTree::Decision &Y) {
        return X.Chosen < Y.Chosen;
      });
}

} // namespace

void Explorer::recordCheck(bool Ok) {
  assert(InExecution && "recordCheck outside an execution");
  if (Ok)
    return;
  ++Sum.Violations;
  const auto &Trace = currentTrace();
  // Keep the lexicographically least violating trace: DFS visits decision
  // sequences in lexicographic order, so this is exactly the first
  // violation serial exploration encounters — worker-count independent.
  if (!Sum.HasViolation || traceLexLess(Trace, Sum.FirstViolation)) {
    Sum.HasViolation = true;
    Sum.FirstViolation = Trace;
  }
}

void Explorer::endExecution(Scheduler::RunResult R) {
  assert(InExecution && "endExecution without beginExecution");
  InExecution = false;
  ++Sum.Executions;
  switch (R) {
  case Scheduler::RunResult::Done:
    ++Sum.Completed;
    break;
  case Scheduler::RunResult::Deadlock:
    ++Sum.Deadlocks;
    break;
  case Scheduler::RunResult::Race:
    ++Sum.Races;
    break;
  case Scheduler::RunResult::StepLimit:
    ++Sum.Diverged;
    break;
  case Scheduler::RunResult::Pruned:
    ++Sum.Pruned;
    break;
  case Scheduler::RunResult::SleepPruned:
    ++Sum.SleepPruned;
    break;
  case Scheduler::RunResult::RfPruned:
    ++Sum.RfPruned;
    break;
  }

  // Every choice of the execution is a decision on its path, whether it was
  // replayed, skipped by a copy-on-write resume or made fresh.
  const DecisionTree::KindTotals &PathTags = Tree.pathTotals();
  for (size_t K = 0; K != NumChoiceKinds; ++K)
    Sum.Tags[K].merge(PathTags[K]);
  Sum.MaxDepth = std::max<uint64_t>(Sum.MaxDepth, Tree.trace().size());
  Sum.Perf.PeakFrontier = std::max(Sum.Perf.PeakFrontier, Tree.frontierSize());

  HasWork = Tree.advance();
  // Source-set advance-time skipping: after each backtrack the path's final
  // decision is the freshly advanced alternative. If the reduction proved
  // that sibling fully covered (Prune verdict recorded at its choice point),
  // discard the subtree without running an execution and advance again. The
  // per-alternative verdicts are pure functions of the (unchanged) prefix
  // above the node, so this is exactly the verdict an execution taking the
  // alternative would have received.
  while (HasWork) {
    const auto &Trace = Tree.trace();
    if (Trace.empty() || !skippable(Trace.back()))
      break;
    ++Sum.SourcePruned;
    HasWork = Tree.advance();
  }
  if (!HasWork)
    Sum.Exhausted = true;
}

bool Explorer::skippable(const DecisionTree::Decision &D) const {
  if (!RedEnabled || D.Kind != ChoiceKind::Sched)
    return false;
  // A donated prefix's final decision carries the ordinal it had on the
  // live trace, whose path it matches before that decision.
  return Red.skipAlternative(D.SchedOrd, D.Chosen);
}

void Explorer::dropSkippedDonations(std::vector<DecisionTree::Prefix> &Out) {
  if (!RedEnabled)
    return;
  size_t W = 0;
  for (size_t I = 0, E = Out.size(); I != E; ++I) {
    if (!Out[I].Path.empty() && skippable(Out[I].Path.back())) {
      ++Sum.SourcePruned;
      continue;
    }
    if (W != I)
      Out[W] = std::move(Out[I]);
    ++W;
  }
  Out.resize(W);
}

bool Explorer::splittable() const {
  return !InExecution && HasWork && Tree.splittable();
}

std::vector<DecisionTree::Prefix> Explorer::split(size_t MaxDonations) {
  assert(!InExecution && "split mid-execution");
  std::vector<DecisionTree::Prefix> Out = Tree.split(MaxDonations);
  // Donations the serial advance loop would have skipped are counted here
  // (on the donor) instead of shipped — a recipient would run an execution
  // on them, and the fingerprint would depend on the work distribution.
  dropSkippedDonations(Out);
  if (RedEnabled)
    for (DecisionTree::Prefix &P : Out)
      Red.annotate(P);
  return Out;
}

std::string
Explorer::formatTrace(const std::vector<DecisionTree::Decision> &Trace) {
  std::string Out;
  if (Trace.empty())
    return "<empty decision trace>\n";
  for (size_t I = 0, E = Trace.size(); I != E; ++I) {
    const DecisionTree::Decision &D = Trace[I];
    Out += "#" + std::to_string(I) + " ";
    Out += choiceKindName(D.Kind);
    Out += " (" + std::to_string(D.Count) + " alts) -> " +
           std::to_string(D.Chosen) + "\n";
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Summary
//===----------------------------------------------------------------------===//

std::vector<unsigned> Explorer::Summary::firstViolationDecisions() const {
  std::vector<unsigned> Out;
  Out.reserve(FirstViolation.size());
  for (const DecisionTree::Decision &D : FirstViolation)
    Out.push_back(D.Chosen);
  return Out;
}

bool Explorer::Summary::coreEquals(const Summary &O) const {
  auto SameTrace = [](const std::vector<DecisionTree::Decision> &A,
                      const std::vector<DecisionTree::Decision> &B) {
    if (A.size() != B.size())
      return false;
    for (size_t I = 0, E = A.size(); I != E; ++I)
      if (A[I].Chosen != B[I].Chosen || A[I].Count != B[I].Count ||
          A[I].Kind != B[I].Kind)
        return false;
    return true;
  };
  return Executions == O.Executions && Completed == O.Completed &&
         Deadlocks == O.Deadlocks && Races == O.Races &&
         Diverged == O.Diverged && Pruned == O.Pruned &&
         SleepPruned == O.SleepPruned && RfPruned == O.RfPruned &&
         SourcePruned == O.SourcePruned && Violations == O.Violations &&
         Exhausted == O.Exhausted && MaxDepth == O.MaxDepth &&
         HasViolation == O.HasViolation &&
         SameTrace(FirstViolation, O.FirstViolation) && Tags == O.Tags;
}

void Explorer::Summary::mergeCore(const Summary &O) {
  Executions += O.Executions;
  Completed += O.Completed;
  Deadlocks += O.Deadlocks;
  Races += O.Races;
  Diverged += O.Diverged;
  Pruned += O.Pruned;
  SleepPruned += O.SleepPruned;
  RfPruned += O.RfPruned;
  SourcePruned += O.SourcePruned;
  Violations += O.Violations;
  Exhausted = Exhausted && O.Exhausted;
  MaxDepth = std::max(MaxDepth, O.MaxDepth);
  if (O.HasViolation &&
      (!HasViolation || traceLexLess(O.FirstViolation, FirstViolation))) {
    HasViolation = true;
    FirstViolation = O.FirstViolation;
  }
  for (size_t K = 0; K != NumChoiceKinds; ++K)
    Tags[K].merge(O.Tags[K]);
}

std::string Explorer::Summary::str() const {
  std::string Out;
  Out += "executions=" + std::to_string(Executions);
  Out += " completed=" + std::to_string(Completed);
  Out += " deadlocks=" + std::to_string(Deadlocks);
  Out += " races=" + std::to_string(Races);
  Out += " diverged=" + std::to_string(Diverged);
  Out += " pruned=" + std::to_string(Pruned);
  Out += " sleep_pruned=" + std::to_string(SleepPruned);
  Out += " rf_pruned=" + std::to_string(RfPruned);
  Out += " source_pruned=" + std::to_string(SourcePruned);
  Out += " violations=" + std::to_string(Violations);
  Out += Exhausted ? " (exhaustive)" : " (truncated)";
  return Out;
}

std::string Explorer::Summary::json() const {
  JsonWriter J;
  J.beginObject();
  J.field("executions", Executions);
  J.field("completed", Completed);
  J.field("deadlocks", Deadlocks);
  J.field("races", Races);
  J.field("diverged", Diverged);
  J.field("pruned", Pruned);
  J.field("sleep_pruned", SleepPruned);
  J.field("rf_pruned", RfPruned);
  J.field("source_pruned", SourcePruned);
  J.field("violations", Violations);
  J.field("exhausted", Exhausted);
  J.field("max_depth", MaxDepth);
  J.field("wall_seconds", Perf.WallSeconds);
  J.field("execs_per_sec", Perf.ExecsPerSec);
  J.field("peak_frontier", Perf.PeakFrontier);
  J.field("peak_queue", Perf.PeakQueue);
  J.field("workers", Perf.Workers);
  J.key("tags");
  J.beginObject();
  for (size_t K = 0; K != NumChoiceKinds; ++K) {
    const TagStat &Stat = Tags[K];
    if (Stat.Choices == 0)
      continue;
    J.key(choiceKindName(static_cast<ChoiceKind>(K)));
    J.beginObject();
    J.field("choices", Stat.Choices);
    J.field("alt_sum", Stat.AltSum);
    J.field("max_arity", Stat.MaxArity);
    J.field("avg_arity", Stat.avgArity());
    J.endObject();
  }
  J.endObject();
  J.key("first_violation");
  J.beginArray();
  if (HasViolation)
    for (const DecisionTree::Decision &D : FirstViolation)
      J.value(D.Chosen);
  J.endArray();
  J.endObject();
  return J.str();
}
