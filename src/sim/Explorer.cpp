//===-- sim/Explorer.cpp - Stateless model-checking driver ----------------===//

#include "sim/Explorer.h"

#include "support/Error.h"
#include "support/Json.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

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

const char *sim::enginePathName(EnginePath P) {
  return P == EnginePath::RootReplay ? "root" : "auto";
}

bool sim::parseEnginePath(const std::string &S, EnginePath &Out) {
  if (S == "auto")
    Out = EnginePath::Auto;
  else if (S == "root")
    Out = EnginePath::RootReplay;
  else
    return false;
  return true;
}

Explorer::Explorer(Options O)
    : Opts(O), Rand(O.Seed), Start(std::chrono::steady_clock::now()),
      LastProgress(Start) {
  RedEnabled = Opts.Reduction == ReductionMode::SourceSet &&
               Opts.ExploreMode == Mode::Exhaustive;
}

Explorer::Explorer() : Explorer(Options{}) {}

Explorer::Explorer(Options O, DecisionTree::Prefix Seed)
    : Opts(O), Rand(O.Seed), Start(std::chrono::steady_clock::now()),
      LastProgress(Start) {
  RedEnabled = Opts.Reduction == ReductionMode::SourceSet &&
               Opts.ExploreMode == Mode::Exhaustive;
  // Consume the donor's sleep snapshot before the path moves into the
  // tree; the reduction validates its recomputed state against it when
  // replay reaches the seeded ordinal.
  if (RedEnabled && Seed.HasSleep)
    Red.setSeed(std::move(Seed.Sleep), Seed.SleepOrdinal);
  Tree = DecisionTree(std::move(Seed));
}

bool Explorer::hasWork() const {
  if (Opts.ExploreMode == Mode::Random)
    return Sum.Executions < Opts.RandomRuns;
  return HasWork && !Tree.exhausted() && Sum.Executions < Opts.MaxExecutions;
}

bool Explorer::beginExecution() {
  assert(!InExecution && "beginExecution without matching endExecution");
  if (!hasWork())
    return false;
  if (Opts.ExploreMode == Mode::Random)
    RandTrace.clear();
  else
    Tree.beginExecution();
  if (RedEnabled)
    Red.beginExecution();
  InExecution = true;
  return true;
}

Explorer::TagStat &Explorer::tagStat(const char *Tag) {
  // Per-tag statistics, keyed by pointer identity of the static string
  // (merged by name into Summary.Tags). A linear scan beats hashing for the
  // handful of distinct tags in play.
  for (auto &Entry : TagStats)
    if (Entry.first == Tag || std::strcmp(Entry.first, Tag) == 0)
      return Entry.second;
  TagStats.push_back({Tag, TagStat{}});
  return TagStats.back().second;
}

unsigned Explorer::choose(unsigned Count, const char *Tag) {
  return chooseLimited(Count, Count, Tag);
}

unsigned Explorer::chooseLimited(unsigned Count, unsigned Limit,
                                 const char *Tag) {
  assert(InExecution && "choice outside an execution");
  assert(Count >= 1 && "choice with no alternatives");
  assert(Limit >= 1 && Limit <= Count && "enumeration limit out of range");

  TagStat &Stat = tagStat(Tag);
  ++Stat.Choices;
  Stat.AltSum += Count;
  Stat.MaxArity = std::max(Stat.MaxArity, Count);

  if (Opts.ExploreMode == Mode::Random) {
    // Record the decision even in random mode: a failing sampled run must
    // be reproducible via replay() from currentDecisions(). (Reduction —
    // and with it restricted choice sets — only exists in exhaustive mode,
    // so Limit == Count here; sample within the limit regardless.)
    unsigned Pick = static_cast<unsigned>(Rand.below(Limit));
    RandTrace.push_back({Pick, Count, Count, Tag});
    return Pick;
  }

  // A fresh multi-enumerable node is a potential backtrack target: let
  // the copy-on-write engine snapshot the pre-decision state so sibling
  // alternatives resume here. Replayed nodes (including the pinned seed)
  // already have their snapshots from the execution that created them.
  // Limit == 1 nodes (a restricted set collapsed to one alternative) are
  // never advance()/split() targets, so they need no snapshot.
  if (SnapHook && Limit > 1 && !Tree.replaying())
    SnapHook(Tree.position(), Tag);

  return Tree.next(Count, Limit, Tag);
}

size_t Explorer::decisionPosition() const {
  return Opts.ExploreMode == Mode::Random ? RandTrace.size()
                                          : Tree.position();
}

void Explorer::resumeReplayAt(size_t Pos) {
  assert(InExecution && "resumeReplayAt outside an execution");
  assert(Opts.ExploreMode == Mode::Exhaustive);
  Tree.resumeAt(Pos);
}

void Explorer::creditReplayedPrefix(size_t Pos) {
  // The skipped prefix's decisions still exist on the tree path; account
  // for the choose() calls a root replay would have made for them, so the
  // deterministic core (per-tag totals) is engine-path independent.
  const auto &Trace = Tree.trace();
  assert(Pos <= Trace.size());
  for (size_t I = 0; I != Pos; ++I) {
    const DecisionTree::Decision &D = Trace[I];
    // Count==1 decisions never reach choose(); the tree records only real
    // alternatives, so every entry counts.
    TagStat &Stat = tagStat(D.Tag);
    ++Stat.Choices;
    Stat.AltSum += D.Count;
    Stat.MaxArity = std::max(Stat.MaxArity, D.Count);
  }
}

const std::vector<DecisionTree::Decision> &Explorer::currentTrace() const {
  return Opts.ExploreMode == Mode::Random ? RandTrace : Tree.trace();
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

  Sum.MaxDepth = std::max<uint64_t>(Sum.MaxDepth, currentTrace().size());

  if (Opts.ExploreMode == Mode::Exhaustive) {
    Sum.Perf.PeakFrontier =
        std::max(Sum.Perf.PeakFrontier, Tree.frontierSize());
    HasWork = Tree.advance();
    // Source-set advance-time skipping: after each backtrack the path's
    // final decision is the freshly advanced alternative. If the reduction
    // proved that sibling fully covered (Prune verdict recorded at its
    // choice point), discard the subtree without running an execution and
    // advance again. The per-alternative verdicts are pure functions of the
    // (unchanged) prefix above the node, so this is exactly the verdict an
    // execution taking the alternative would have received.
    while (HasWork) {
      const auto &Trace = Tree.trace();
      if (Trace.empty() || !skippable(Trace.size() - 1, Trace.back()))
        break;
      ++Sum.SourcePruned;
      HasWork = Tree.advance();
    }
    if (!HasWork)
      Sum.Exhausted = true;
  }

  finalizePerf();

  if (Opts.ProgressIntervalSec > 0) {
    auto Now = std::chrono::steady_clock::now();
    double Since =
        std::chrono::duration<double>(Now - LastProgress).count();
    if (Since >= Opts.ProgressIntervalSec) {
      LastProgress = Now;
      std::fprintf(stderr,
                   "[explore] %llu execs, %.0f execs/s, depth<=%llu, "
                   "frontier~%llu\n",
                   static_cast<unsigned long long>(Sum.Executions),
                   Sum.Perf.ExecsPerSec,
                   static_cast<unsigned long long>(Sum.MaxDepth),
                   static_cast<unsigned long long>(Tree.frontierSize()));
    }
  }
}

void Explorer::finalizePerf() {
  double Wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  Sum.Perf.WallSeconds = Wall;
  Sum.Perf.ExecsPerSec =
      Wall > 0 ? static_cast<double>(Sum.Executions) / Wall : 0.0;
  Sum.Tags.clear();
  for (const auto &[Tag, Stat] : TagStats) {
    TagStat &Dst = Sum.Tags[Tag];
    Dst.Choices += Stat.Choices;
    Dst.AltSum += Stat.AltSum;
    Dst.MaxArity = std::max(Dst.MaxArity, Stat.MaxArity);
  }
}

bool Explorer::skippable(size_t Pos, const DecisionTree::Decision &D) const {
  if (!RedEnabled || !D.Tag || std::strcmp(D.Tag, "sched") != 0)
    return false;
  // The decision's sched ordinal: sched-tagged decisions correspond 1:1, in
  // order, to the reduction's recorded choice points. Counting over the
  // live trace is valid for donated prefixes too — a donation's path
  // matches the live trace on every position before its final decision.
  const auto &Trace = Tree.trace();
  size_t K = 0;
  for (size_t I = 0, E = std::min(Pos, Trace.size()); I != E; ++I)
    if (Trace[I].Tag && std::strcmp(Trace[I].Tag, "sched") == 0)
      ++K;
  return Red.skipAlternative(K, D.Chosen);
}

void Explorer::dropSkippedDonations(std::vector<DecisionTree::Prefix> &Out,
                                    bool KeepLast) {
  if (!RedEnabled || Out.empty())
    return;
  const size_t Limit = Out.size() - (KeepLast ? 1 : 0);
  size_t W = 0;
  for (size_t I = 0, E = Out.size(); I != E; ++I) {
    if (I < Limit && !Out[I].Path.empty() &&
        skippable(Out[I].Path.size() - 1, Out[I].Path.back())) {
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
  return !InExecution && Opts.ExploreMode == Mode::Exhaustive &&
         HasWork && Tree.splittable();
}

std::vector<DecisionTree::Prefix> Explorer::split(size_t MaxDonations) {
  assert(!InExecution && "split mid-execution");
  std::vector<DecisionTree::Prefix> Out = Tree.split(MaxDonations);
  // Donations the serial advance loop would have skipped are counted here
  // (on the donor) instead of shipped — a recipient would run an execution
  // on them, and the fingerprint would depend on the work distribution.
  dropSkippedDonations(Out, /*KeepLast=*/false);
  if (RedEnabled)
    for (DecisionTree::Prefix &P : Out)
      Red.annotate(P);
  return Out;
}

std::vector<DecisionTree::Prefix> Explorer::drainFrontier() {
  assert(!InExecution && "drainFrontier mid-execution");
  assert(Opts.ExploreMode == Mode::Exhaustive &&
         "only exhaustive exploration has a frontier to drain");
  std::vector<DecisionTree::Prefix> Out;
  if (HasWork && !Tree.exhausted()) {
    Out = Tree.frontierPrefixes();
    // The final element is the pinned current path — advance-vetted, never
    // filtered; the alternative prefixes before it get the same skip test
    // as split() donations.
    dropSkippedDonations(Out, /*KeepLast=*/true);
    // Like split(): carry the sleep state so recipients can cross-check
    // their recomputation (annotation is validation only — the state is a
    // pure function of the path).
    if (RedEnabled)
      for (DecisionTree::Prefix &P : Out)
        Red.annotate(P);
  }
  // The executed share of this subtree is complete; its unexplored
  // remainder now lives in Out and carries its own exhaustion accounting.
  HasWork = false;
  Sum.Exhausted = true;
  finalizePerf();
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
    Out += D.Tag ? D.Tag : "?";
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
    for (size_t I = 0, E = A.size(); I != E; ++I) {
      if (A[I].Chosen != B[I].Chosen || A[I].Count != B[I].Count)
        return false;
      const char *Ta = A[I].Tag ? A[I].Tag : "";
      const char *Tb = B[I].Tag ? B[I].Tag : "";
      if (std::strcmp(Ta, Tb) != 0)
        return false;
    }
    return true;
  };
  auto SameTags = [](const std::map<std::string, TagStat> &A,
                     const std::map<std::string, TagStat> &B) {
    if (A.size() != B.size())
      return false;
    for (auto ItA = A.begin(), ItB = B.begin(); ItA != A.end();
         ++ItA, ++ItB) {
      if (ItA->first != ItB->first ||
          ItA->second.Choices != ItB->second.Choices ||
          ItA->second.AltSum != ItB->second.AltSum ||
          ItA->second.MaxArity != ItB->second.MaxArity)
        return false;
    }
    return true;
  };
  return Executions == O.Executions && Completed == O.Completed &&
         Deadlocks == O.Deadlocks && Races == O.Races &&
         Diverged == O.Diverged && Pruned == O.Pruned &&
         SleepPruned == O.SleepPruned && RfPruned == O.RfPruned &&
         SourcePruned == O.SourcePruned && Violations == O.Violations &&
         Exhausted == O.Exhausted && MaxDepth == O.MaxDepth &&
         HasViolation == O.HasViolation &&
         SameTrace(FirstViolation, O.FirstViolation) &&
         SameTags(Tags, O.Tags);
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
  for (const auto &[Name, Stat] : O.Tags) {
    TagStat &Dst = Tags[Name];
    Dst.Choices += Stat.Choices;
    Dst.AltSum += Stat.AltSum;
    Dst.MaxArity = std::max(Dst.MaxArity, Stat.MaxArity);
  }
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
  for (const auto &[Name, Stat] : Tags) {
    J.key(Name);
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
