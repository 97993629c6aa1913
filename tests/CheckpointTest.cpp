//===-- tests/CheckpointTest.cpp - Checkpoint/resume exactness -------------===//
//
// The crash-resilience suite (DESIGN.md Section 9). Three layers:
//
//  * text round-trips: ExplorationSnapshot and SweepCheckpoint survive
//    serialize -> parse bit-exactly, and malformed inputs are rejected
//    with a diagnostic instead of a crash or a silently-wrong resume;
//  * exploration resume: interrupting a workload mid-search (by execution
//    tripwire) and resuming the snapshot — at any worker count, across
//    multiple interrupt/resume segments — reproduces the bit-identical
//    Summary core of an uninterrupted run;
//  * sweep resume: an interrupted runSweepResumable, resumed (possibly
//    repeatedly, at different worker counts), ends with the bit-identical
//    SweepReport fingerprint of an uninterrupted sweep.
//
//===----------------------------------------------------------------------===//

#include "SimTestUtil.h"
#include "check/Checkpoint.h"
#include "check/Harness.h"
#include "check/ScenarioGen.h"
#include "check/Telemetry.h"
#include "lib/MsQueue.h"
#include "sim/Checkpoint.h"
#include "sim/ParallelExplorer.h"
#include "spec/Consistency.h"
#include "spec/SpecMonitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace compass;
using namespace compass::rmc;
using namespace compass::sim;

namespace {

/// The E2 MS-queue configuration (the same shape ParallelTest uses): big
/// enough to interrupt mid-flight, small enough to exhaust quickly.
Workload msQueueWorkload(unsigned Workers, ReductionMode Red) {
  Explorer::Options Opts;
  Opts.Workers = Workers;
  Opts.PreemptionBound = 2;
  Opts.MaxExecutions = 500'000;
  Opts.Reduction = Red;
  return Workload(Opts, []() -> Workload::Body {
    struct State {
      std::unique_ptr<spec::SpecMonitor> Mon;
      std::unique_ptr<lib::MsQueue> Q;
      std::vector<Value> Got0, Got1;
    };
    auto St = std::make_shared<State>();
    return {
        [St](Machine &M, Scheduler &S) {
          St->Mon = std::make_unique<spec::SpecMonitor>();
          St->Q = std::make_unique<lib::MsQueue>(M, *St->Mon, "q");
          St->Got0.clear();
          St->Got1.clear();
          Env &E0 = S.newThread();
          S.start(E0, test::enqueuerThread(E0, *St->Q, {1, 2}));
          Env &E1 = S.newThread();
          S.start(E1, test::dequeuerThread(E1, *St->Q, 1, &St->Got0));
          Env &E2 = S.newThread();
          S.start(E2, test::dequeuerThread(E2, *St->Q, 1, &St->Got1));
        },
        [St](Machine &, Scheduler &, Scheduler::RunResult R) {
          if (R != Scheduler::RunResult::Done)
            return false;
          return spec::checkConsistent(St->Mon->graph(), St->Q->objId(),
                                       spec::SeqSpec::Queue)
              .ok();
        }};
  });
}

bool prefixEquals(const DecisionTree::Prefix &A,
                  const DecisionTree::Prefix &B) {
  if (A.Path.size() != B.Path.size() || A.HasSleep != B.HasSleep ||
      A.SleepOrdinal != B.SleepOrdinal || A.Sleep != B.Sleep)
    return false;
  for (size_t I = 0; I != A.Path.size(); ++I) {
    const DecisionTree::Decision &X = A.Path[I], &Y = B.Path[I];
    if (X.Chosen != Y.Chosen || X.Limit != Y.Limit || X.Count != Y.Count ||
        X.Kind != Y.Kind)
      return false;
  }
  return true;
}

/// Interrupts \p W after ~InterruptAt executions; returns the segment.
ExploreResult interruptAt(Workload W, uint64_t InterruptAt,
                          const ExplorationSnapshot *Resume = nullptr) {
  ExploreControl Ctl;
  Ctl.InterruptAtExecs = InterruptAt;
  return exploreResumable(W, Ctl, Resume);
}

/// A hand-built snapshot holding each record that names a choice kind:
/// tag, fv and d.
ExplorationSnapshot kindedSnapshot() {
  ExplorationSnapshot S;
  Explorer::Summary &P = S.Partial;
  P.Executions = P.Completed = 3;
  P.Violations = 1;
  P.Exhausted = true;
  P.MaxDepth = 2;
  P.HasViolation = true;
  P.FirstViolation = {{0, 2, 2, ChoiceKind::Sched},
                      {1, 2, 2, ChoiceKind::Load}};
  P.Tags[static_cast<size_t>(ChoiceKind::Load)].add(2);
  P.Tags[static_cast<size_t>(ChoiceKind::Sched)].add(2);
  DecisionTree::Prefix Pf;
  Pf.Path = {{1, 2, 2, ChoiceKind::Sched}};
  S.Frontier.push_back(Pf);
  return S;
}

/// Replaces the kind named by the first \p Rec record in \p Text with
/// \p Word: the first field of a tag record, the last of a decision.
std::string renameKind(std::string Text, const std::string &Rec,
                       const std::string &Word) {
  size_t B = Text.find("\n" + Rec + " ");
  EXPECT_NE(B, std::string::npos) << "no " << Rec << " record";
  if (B == std::string::npos)
    return Text;
  size_t E = Text.find('\n', B + 1);
  size_t W = Rec == "tag" ? B + 1 + Rec.size() : Text.rfind(' ', E);
  size_t WEnd = Text.find(' ', W + 1);
  return Text.replace(W + 1, std::min(WEnd, E) - W - 1, Word);
}

} // namespace

//===----------------------------------------------------------------------===//
// Snapshot text round-trips
//===----------------------------------------------------------------------===//

TEST(SnapshotFormat, RoundTripsInterruptedExploration) {
  // Interrupt a real source-set exploration and round-trip the resulting
  // snapshot: its prefixes carry sleep snapshots with the per-sleeper
  // Atomic flag and reads-from watermark, and its summary the source-set
  // counters — all of it must survive the text round trip bit-exactly.
  auto R = interruptAt(msQueueWorkload(2, ReductionMode::SourceSet), 200);
  ASSERT_TRUE(R.Interrupted);
  ASSERT_FALSE(R.Snapshot.empty());

  std::string Text = serializeSnapshot(R.Snapshot);
  EXPECT_EQ(Text.rfind("snapshot v3\n", 0), 0u)
      << "writer must emit the v3 header";
  ExplorationSnapshot Back;
  std::string Err;
  ASSERT_TRUE(parseSnapshot(Text, Back, Err)) << Err;

  EXPECT_TRUE(Back.Partial.coreEquals(R.Snapshot.Partial))
      << "saved:  " << R.Snapshot.Partial.str()
      << "\nparsed: " << Back.Partial.str();
  ASSERT_EQ(Back.Frontier.size(), R.Snapshot.Frontier.size());
  for (size_t I = 0; I != Back.Frontier.size(); ++I)
    EXPECT_TRUE(prefixEquals(Back.Frontier[I], R.Snapshot.Frontier[I]))
        << "frontier prefix " << I;

  // Serialization is deterministic: a second round trip is bit-identical.
  EXPECT_EQ(serializeSnapshot(Back), Text);
}

TEST(SnapshotFormat, RejectsOlderVersions) {
  // v2 snapshots carried the duplicate-rf cache counter, and v1 snapshots
  // came from plain sleep-set runs; no mode can resume either, so both
  // headers are rejected with a diagnostic naming the wanted version.
  auto R = interruptAt(msQueueWorkload(1, ReductionMode::SourceSet), 200);
  ASSERT_TRUE(R.Interrupted);
  const std::string V3 = serializeSnapshot(R.Snapshot);
  ASSERT_EQ(V3.rfind("snapshot v3\n", 0), 0u);

  // The v2 shape of the same snapshot: the cache counter sat right after
  // SourcePruned, making the summary record 14 fields instead of 13.
  std::string V2Body;
  std::istringstream In(V3.substr(V3.find('\n') + 1));
  for (std::string Line; std::getline(In, Line);) {
    if (Line.rfind("summary ", 0) == 0) {
      std::istringstream F(Line.substr(8));
      std::vector<std::string> W;
      for (std::string T; F >> T;)
        W.push_back(T);
      ASSERT_EQ(W.size(), 13u) << Line;
      W.insert(W.begin() + 9, "0");
      Line = "summary";
      for (const std::string &T : W)
        Line += " " + T;
    }
    V2Body += Line + "\n";
  }

  ExplorationSnapshot Out;
  for (const char *Old : {"snapshot v1\n", "snapshot v2\n"}) {
    std::string Err;
    EXPECT_FALSE(parseSnapshot(Old + V2Body, Out, Err)) << Old;
    EXPECT_NE(Err.find("want 'snapshot v3'"), std::string::npos) << Err;
  }
  // Relabelling a v2 file as v3 does not get its summary past the parser.
  std::string Err;
  EXPECT_FALSE(parseSnapshot("snapshot v3\n" + V2Body, Out, Err));
  EXPECT_NE(Err.find("malformed summary record"), std::string::npos) << Err;
}

TEST(SnapshotFormat, RoundTripsViolationState) {
  // A snapshot taken after violations were seen must preserve the lex-min
  // first-violation trace (it participates in the final merge).
  check::GenOptions G;
  G.MaxThreads = 2;
  G.MaxOpsPerThread = 2;
  G.MinPreemptions = G.MaxPreemptions = 1;
  check::Scenario S = check::generateScenario(
      check::Lib::TreiberStack, check::scenarioSeed(13, check::Lib::TreiberStack, 0), G);
  Workload W = check::makeWorkload(S, check::Mutation::TreiberRelaxedPopHead,
                                   check::scenarioOptions(S, 200000, 2));
  auto Full = explore(W);
  ASSERT_TRUE(Full.HasViolation) << "scenario no longer violates; reseed";

  auto R = interruptAt(W, Full.Executions / 2);
  ASSERT_TRUE(R.Interrupted);
  std::string Text = serializeSnapshot(R.Snapshot);
  ExplorationSnapshot Back;
  std::string Err;
  ASSERT_TRUE(parseSnapshot(Text, Back, Err)) << Err;
  EXPECT_TRUE(Back.Partial.coreEquals(R.Snapshot.Partial));
  EXPECT_EQ(Back.Partial.firstViolationDecisions(),
            R.Snapshot.Partial.firstViolationDecisions());
}

TEST(SnapshotFormat, RejectsMalformedInput) {
  ExplorationSnapshot Out;
  std::string Err;
  auto Bad = [&](std::string_view Text) {
    Err.clear();
    bool Ok = parseSnapshot(Text, Out, Err);
    EXPECT_FALSE(Ok) << "accepted: " << Text;
    EXPECT_FALSE(Err.empty());
  };
  Bad("");
  Bad("snapshot v3\nend snapshot\n");
  Bad("not a snapshot at all");
  Bad("snapshot v3\n"); // truncated: no summary, no footer

  // A valid snapshot, then corrupted one line at a time.
  auto R = interruptAt(msQueueWorkload(1, ReductionMode::SourceSet), 200);
  ASSERT_TRUE(R.Interrupted);
  std::string Good = serializeSnapshot(R.Snapshot);
  ASSERT_TRUE(parseSnapshot(Good, Out, Err)) << Err;
  Bad(Good.substr(0, Good.size() / 2));            // torn mid-file
  Bad("snapshot v3\ngarbage here\n" + Good);       // wrong record kind
  std::string Neg = Good;
  size_t P = Neg.find("\nd ");
  ASSERT_NE(P, std::string::npos);
  Neg.replace(P, 3, "\nd -"); // negative decision field
  Bad(Neg);
}

TEST(SnapshotFormat, RejectsUnknownChoiceKinds) {
  const std::string Good = serializeSnapshot(kindedSnapshot());
  ExplorationSnapshot Out;
  std::string Err;
  ASSERT_TRUE(parseSnapshot(Good, Out, Err)) << Err;
  EXPECT_TRUE(Out.Partial.coreEquals(kindedSnapshot().Partial));
  EXPECT_EQ(serializeSnapshot(Out), Good);

  // Every record that names a kind takes one of the four names; "-" (a
  // null tag) and near misses are errors that name the record.
  for (const char *Rec : {"tag", "fv", "d"})
    for (const char *Word : {"schedule", "-", "rf", "Sched"}) {
      Err.clear();
      EXPECT_FALSE(parseSnapshot(renameKind(Good, Rec, Word), Out, Err))
          << Rec << " " << Word;
      EXPECT_NE(Err.find(std::string("unknown choice kind in '") + Rec +
                         "' record"),
                std::string::npos)
          << Err;
    }
  // A kind's statistics are listed once.
  std::string Twice = Good;
  size_t P = Twice.find("\ntag load ");
  ASSERT_NE(P, std::string::npos);
  Twice.replace(P, 10, "\ntag sched ");
  EXPECT_FALSE(parseSnapshot(Twice, Out, Err));
  EXPECT_NE(Err.find("duplicate 'tag' record"), std::string::npos) << Err;
}

TEST(SweepCheckpointFormat, RoundTripsAndRejectsMalformed) {
  using namespace compass::check;

  // Build a real mid-scenario checkpoint via the resumable sweep.
  SweepOptions O;
  O.Seed = 5;
  O.ScenariosPerLib = 2;
  O.Workers = 2;
  O.MaxExecutionsPerScenario = 60000;
  O.Libs = {Lib::MsQueue, Lib::TreiberStack};
  std::atomic<bool> Stop{true}; // stop before the first poll
  SweepControl Ctl;
  Ctl.StopRequested = &Stop;
  SweepResult R = runSweepResumable(O, Ctl);
  ASSERT_TRUE(R.Interrupted);

  std::string Text = serializeSweepCheckpoint(R.Ckpt);
  SweepCheckpoint Back;
  std::string Err;
  ASSERT_TRUE(parseSweepCheckpoint(Text, Back, Err)) << Err;
  EXPECT_EQ(Back.Seed, R.Ckpt.Seed);
  EXPECT_EQ(Back.ScenariosPerLib, R.Ckpt.ScenariosPerLib);
  EXPECT_EQ(Back.Libs, R.Ckpt.Libs);
  EXPECT_EQ(Back.Fp, R.Ckpt.Fp);
  EXPECT_EQ(Back.LibIndex, R.Ckpt.LibIndex);
  EXPECT_EQ(Back.ScenarioIndex, R.Ckpt.ScenarioIndex);
  EXPECT_EQ(Back.HasScenario, R.Ckpt.HasScenario);
  EXPECT_EQ(Back.ScenarioLinAborts, R.Ckpt.ScenarioLinAborts);
  if (R.Ckpt.HasScenario) {
    EXPECT_TRUE(Back.Scenario.Partial.coreEquals(R.Ckpt.Scenario.Partial));
  }
  // Deterministic serialization.
  EXPECT_EQ(serializeSweepCheckpoint(Back), Text);

  auto BadCk = [&](std::string T) {
    Err.clear();
    EXPECT_FALSE(parseSweepCheckpoint(T, Back, Err));
    EXPECT_FALSE(Err.empty());
  };
  BadCk("");
  BadCk("compass sweep-checkpoint v9\n");
  // Earlier grammars (v2 with an engine path on the config line, v1 with
  // the duplicate-rf cache counter in every stat record) are rejected with
  // a diagnostic naming the wanted version.
  for (const char *OldHeader :
       {"compass sweep-checkpoint v1", "compass sweep-checkpoint v2"}) {
    std::string Old = Text;
    Old.replace(0, Old.find('\n'), OldHeader);
    BadCk(Old);
    EXPECT_NE(Err.find("want 'compass sweep-checkpoint v3'"),
              std::string::npos)
        << Err;
  }
  BadCk(Text.substr(0, Text.size() - 8)); // missing footer
  std::string Wrong = Text;
  size_t P = Wrong.find("libs ");
  ASSERT_NE(P, std::string::npos);
  Wrong.replace(P, 6, "libs 0"); // empty library list
  BadCk(Wrong);
  // A config line without the reduction word (the pre-fix grammar) must be
  // rejected, not silently defaulted.
  Wrong = Text;
  P = Wrong.find("\ngen ");
  ASSERT_NE(P, std::string::npos);
  size_t CfgEnd = Wrong.rfind(' ', P - 1);
  Wrong.erase(CfgEnd, P - CfgEnd); // strip " <red>"
  BadCk(Wrong);
}

TEST(SweepCheckpointFormat, RejectsUnknownChoiceKinds) {
  using namespace compass::check;

  SweepCheckpoint K;
  K.Libs = {Lib::MsQueue};
  K.CurLib.L = Lib::MsQueue;
  K.HasScenario = true;
  K.Scenario = kindedSnapshot();
  const std::string Good = serializeSweepCheckpoint(K);
  SweepCheckpoint Out;
  std::string Err;
  ASSERT_TRUE(parseSweepCheckpoint(Good, Out, Err)) << Err;

  for (const char *Rec : {"tag", "fv", "d"}) {
    Err.clear();
    EXPECT_FALSE(
        parseSweepCheckpoint(renameKind(Good, Rec, "schedule"), Out, Err))
        << Rec;
    EXPECT_NE(Err.find(std::string("unknown choice kind in '") + Rec +
                       "' record"),
              std::string::npos)
        << Err;
  }
}

TEST(SweepCheckpointFormat, ExecutionsCountsEveryExecutedShare) {
  check::SweepCheckpoint K;
  K.DoneLibs.resize(2);
  K.DoneLibs[0].Executions = 5;
  K.DoneLibs[1].Executions = 7;
  K.CurLib.Executions = 11;
  K.Scenario.Partial.Executions = 13;
  EXPECT_EQ(K.executions(), 23u); // no scenario in flight: 13 not counted
  K.HasScenario = true;
  EXPECT_EQ(K.executions(), 36u);
}

TEST(SweepCheckpointFormat, RecordsReductionMode) {
  using namespace compass::check;

  // Regression: the checkpoint writer used to serialize the source-set
  // mode as "none", so a source-set sweep silently resumed unreduced (and
  // fingerprint-diverged). The config line must round-trip the exact mode
  // the executed share ran under.
  for (ReductionMode Red : {ReductionMode::None, ReductionMode::SourceSet}) {
    SweepOptions O;
    O.Seed = 5;
    O.ScenariosPerLib = 2;
    O.Workers = 2;
    O.MaxExecutionsPerScenario = 60000;
    O.Reduction = Red;
    O.Libs = {Lib::MsQueue, Lib::TreiberStack};
    std::atomic<bool> Stop{true};
    SweepControl Ctl;
    Ctl.StopRequested = &Stop;
    SweepResult R = runSweepResumable(O, Ctl);
    ASSERT_TRUE(R.Interrupted);
    EXPECT_EQ(R.Ckpt.Reduction, Red);

    std::string Text = serializeSweepCheckpoint(R.Ckpt);
    std::istringstream In(Text);
    std::string Header, Config;
    ASSERT_TRUE(std::getline(In, Header) && std::getline(In, Config));
    EXPECT_EQ(Config.substr(Config.rfind(' ') + 1), reductionModeName(Red))
        << "config line does not end with the mode: " << Config;

    SweepCheckpoint Back;
    std::string Err;
    ASSERT_TRUE(parseSweepCheckpoint(Text, Back, Err)) << Err;
    EXPECT_EQ(Back.Reduction, Red) << reductionModeName(Red);
  }
}

//===----------------------------------------------------------------------===//
// Exploration-level resume exactness
//===----------------------------------------------------------------------===//

namespace {

/// Interrupt at ~half, then resume to completion at \p ResumeWorkers; the
/// final core must equal the uninterrupted reference bit-for-bit.
void expectResumeExact(ReductionMode Red, unsigned FirstWorkers,
                       unsigned ResumeWorkers) {
  auto Ref = explore(msQueueWorkload(1, Red));
  ASSERT_TRUE(Ref.Exhausted);

  auto Seg1 = interruptAt(msQueueWorkload(FirstWorkers, Red),
                          Ref.Executions / 2);
  ASSERT_TRUE(Seg1.Interrupted) << "tree too small to interrupt";
  ASSERT_FALSE(Seg1.Snapshot.empty());
  EXPECT_LT(Seg1.Sum.Executions, Ref.Executions);

  // Round-trip through text: resume exactly what a file would hold.
  std::string Text = serializeSnapshot(Seg1.Snapshot);
  ExplorationSnapshot Snap;
  std::string Err;
  ASSERT_TRUE(parseSnapshot(Text, Snap, Err)) << Err;

  ExploreControl Run;
  auto Seg2 = exploreResumable(msQueueWorkload(ResumeWorkers, Red), Run,
                               &Snap);
  EXPECT_FALSE(Seg2.Interrupted);
  EXPECT_TRUE(Seg2.Sum.coreEquals(Ref))
      << "reference: " << Ref.str() << "\nresumed:   " << Seg2.Sum.str();
}

} // namespace

TEST(ResumeExactness, SerialInterruptSerialResume) {
  expectResumeExact(ReductionMode::None, 1, 1);
}

TEST(ResumeExactness, ParallelInterruptParallelResume) {
  expectResumeExact(ReductionMode::None, 2, 4);
}

TEST(ResumeExactness, WorkerCountChangesAcrossSegments) {
  expectResumeExact(ReductionMode::None, 4, 1);
}

TEST(ResumeExactness, SourceReductionSerial) {
  expectResumeExact(ReductionMode::SourceSet, 1, 2);
}

TEST(ResumeExactness, SourceReductionParallel) {
  expectResumeExact(ReductionMode::SourceSet, 2, 4);
}

TEST(ResumeExactness, ManySegmentsStillExact) {
  // Interrupt every ~sixth of the tree until done, rotating worker
  // counts; the chained segments must still land on the uninterrupted
  // core. Source sets stress the donated-prefix snapshot validation the
  // hardest (every hop re-seeds sleep state and watermarks).
  const ReductionMode Red = ReductionMode::SourceSet;
  auto Ref = explore(msQueueWorkload(1, Red));
  ASSERT_TRUE(Ref.Exhausted);
  const uint64_t Stride = std::max<uint64_t>(Ref.Executions / 6, 25);

  unsigned WorkerRotation[] = {1, 2, 4, 3};
  ExplorationSnapshot Snap;
  bool HaveSnap = false;
  Explorer::Summary Final;
  unsigned Segments = 0;
  for (;; ++Segments) {
    ASSERT_LT(Segments, 100u) << "resume loop failed to make progress";
    uint64_t Base = HaveSnap ? Snap.Partial.Executions : 0;
    auto R = interruptAt(
        msQueueWorkload(WorkerRotation[Segments % 4], Red), Base + Stride,
        HaveSnap ? &Snap : nullptr);
    if (!R.Interrupted) {
      Final = R.Sum;
      break;
    }
    // Round-trip through the text format on every hop.
    std::string Err;
    std::string Text = serializeSnapshot(R.Snapshot);
    ASSERT_TRUE(parseSnapshot(Text, Snap, Err)) << Err;
    HaveSnap = true;
  }
  EXPECT_GE(Segments, 3u) << "tree too small to test multi-segment resume";
  EXPECT_TRUE(Final.coreEquals(Ref))
      << "reference: " << Ref.str() << "\nchained:   " << Final.str();
}

TEST(ResumeExactness, StopRequestedBeforeTheCallStopsAtTheRoot) {
  // Every worker checks the stop flag before each execution, so a request
  // already set when the call starts interrupts before the first one,
  // however small the tree: the snapshot is the bare root prefix.
  const ReductionMode Red = ReductionMode::SourceSet;
  auto Ref = explore(msQueueWorkload(1, Red));
  ASSERT_TRUE(Ref.Exhausted);
  std::atomic<bool> Stop{true};
  ExploreControl Ctl;
  Ctl.StopRequested = &Stop;
  for (unsigned Workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    ExploreResult Seg = exploreResumable(msQueueWorkload(Workers, Red), Ctl);
    ASSERT_TRUE(Seg.Interrupted);
    EXPECT_EQ(Seg.Sum.Executions, 0u);
    ASSERT_EQ(Seg.Snapshot.Frontier.size(), 1u);
    EXPECT_TRUE(prefixEquals(Seg.Snapshot.Frontier[0], DecisionTree::Prefix{}));

    ExploreResult Done = exploreResumable(msQueueWorkload(Workers, Red),
                                          ExploreControl{}, &Seg.Snapshot);
    EXPECT_FALSE(Done.Interrupted);
    EXPECT_TRUE(Done.Sum.coreEquals(Ref))
        << "reference: " << Ref.str() << "\nresumed:   " << Done.Sum.str();
  }
}

//===----------------------------------------------------------------------===//
// Sweep-level resume exactness
//===----------------------------------------------------------------------===//

TEST(SweepResume, FingerprintExactAcrossInterruptAndWorkers) {
  using namespace compass::check;

  SweepOptions O;
  O.Seed = 5;
  O.ScenariosPerLib = 2;
  O.Workers = 2;
  O.MaxExecutionsPerScenario = 60000;
  O.Libs = {Lib::MsQueue, Lib::TreiberStack, Lib::Exchanger, Lib::SpscRing};

  SweepReport Ref = runSweep(O);

  // Interrupt with a tiny time budget, then resume (rotating the worker
  // count) until the sweep completes. Each hop round-trips the checkpoint
  // through its text form.
  SweepControl Ctl;
  Ctl.TimeBudgetSec = 0.05;
  SweepResult R = runSweepResumable(O, Ctl);
  unsigned Hops = 0;
  SweepCheckpoint Ckpt;
  while (R.Interrupted) {
    ASSERT_LT(++Hops, 200u) << "sweep resume failed to make progress";
    std::string Err;
    ASSERT_TRUE(
        parseSweepCheckpoint(serializeSweepCheckpoint(R.Ckpt), Ckpt, Err))
        << Err;
    SweepOptions O2 = O;
    O2.Workers = 1 + (Hops % 4);
    R = runSweepResumable(O2, Ctl, &Ckpt);
  }
  EXPECT_EQ(R.Rep.fingerprint(), Ref.fingerprint())
      << "uninterrupted:\n" << Ref.str() << "resumed (" << Hops
      << " hops):\n" << R.Rep.str();
  EXPECT_EQ(R.Rep.totalExecutions(), Ref.totalExecutions());
  EXPECT_EQ(R.Rep.totalViolations(), Ref.totalViolations());
}

TEST(SweepResume, StopFlagProducesResumableCheckpoint) {
  using namespace compass::check;

  SweepOptions O;
  O.Seed = 9;
  O.ScenariosPerLib = 1;
  O.Workers = 2;
  O.MaxExecutionsPerScenario = 40000;
  O.Libs = {Lib::MsQueue, Lib::SpscRing};

  SweepReport Ref = runSweep(O);

  std::atomic<bool> Stop{true};
  SweepControl Ctl;
  Ctl.StopRequested = &Stop;
  SweepResult R = runSweepResumable(O, Ctl);
  ASSERT_TRUE(R.Interrupted);

  Stop = false;
  SweepResult Done = runSweepResumable(O, Ctl, &R.Ckpt);
  ASSERT_FALSE(Done.Interrupted);
  EXPECT_EQ(Done.Rep.fingerprint(), Ref.fingerprint())
      << "uninterrupted:\n" << Ref.str() << "resumed:\n" << Done.Rep.str();
}

TEST(SweepResume, CadenceCheckpointsAreEachResumable) {
  using namespace compass::check;

  SweepOptions O;
  O.Seed = 5;
  O.ScenariosPerLib = 1;
  O.Workers = 2;
  O.MaxExecutionsPerScenario = 30000;
  O.Libs = {Lib::MsQueue, Lib::TreiberStack};

  SweepReport Ref = runSweep(O);

  // Collect cadence checkpoints from an uninterrupted run... (the whole
  // sweep is ~6k executions under sleep reduction, so a 1.5k cadence
  // yields several checkpoints, some mid-scenario and some at scenario
  // boundaries)
  std::vector<std::string> Ckpts;
  SweepControl Ctl;
  Ctl.CheckpointEveryExecs = 1500;
  Ctl.OnCheckpoint = [&](const SweepCheckpoint &C) {
    Ckpts.push_back(serializeSweepCheckpoint(C));
  };
  SweepResult R = runSweepResumable(O, Ctl);
  ASSERT_FALSE(R.Interrupted);
  EXPECT_EQ(R.Rep.fingerprint(), Ref.fingerprint());
  ASSERT_FALSE(Ckpts.empty()) << "cadence produced no checkpoints";

  // ...then every single one must resume to the reference fingerprint.
  for (size_t I = 0; I != Ckpts.size(); ++I) {
    SweepCheckpoint C;
    std::string Err;
    ASSERT_TRUE(parseSweepCheckpoint(Ckpts[I], C, Err))
        << "checkpoint " << I << ": " << Err;
    SweepOptions O2 = O;
    O2.Workers = 1 + (I % 4);
    SweepResult Done = runSweepResumable(O2, SweepControl{}, &C);
    ASSERT_FALSE(Done.Interrupted);
    EXPECT_EQ(Done.Rep.fingerprint(), Ref.fingerprint())
        << "checkpoint " << I << " resumed to a different fingerprint";
  }
}

TEST(SweepResume, HeartbeatsCarryTheRunningSweepTotals) {
  using namespace compass::check;

  // Heartbeats come from a worker, which at one worker is the caller.
  for (unsigned Workers : {1u, 2u}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    SweepOptions O;
    O.Seed = 5;
    O.ScenariosPerLib = 2;
    O.Workers = Workers;
    O.MaxExecutionsPerScenario = 60000;
    O.Libs = {Lib::TreiberStack, Lib::MsQueue, Lib::ElimStack};

    // A heartbeat's "sweep" object totals the finished scenarios, so while
    // scenario 0 of library Li runs it holds the libraries before Li.
    SweepReport Ref;
    auto Expected = [&Ref](size_t Li) {
      LibSweepStats T;
      for (size_t J = 0; J != Li; ++J)
        T.add(Ref.PerLib[J]);
      return "\"sweep\":{\"scenarios\":" + std::to_string(T.Scenarios) +
             ",\"executions\":" + std::to_string(T.Executions) +
             ",\"completed\":" + std::to_string(T.Completed) +
             ",\"races\":" + std::to_string(T.Races) +
             ",\"deadlocks\":" + std::to_string(T.Deadlocks) +
             ",\"violations\":" + std::to_string(T.Violations) +
             ",\"sleep_pruned\":" + std::to_string(T.SleepPruned) +
             ",\"rf_pruned\":" + std::to_string(T.RfPruned) +
             ",\"source_pruned\":" + std::to_string(T.SourcePruned) + "}";
    };
    // Checks each heartbeat of \p Path taken during some library's scenario
    // 0; returns how many there were.
    auto CheckHeartbeats = [&](const std::string &Path) {
      std::ifstream In(Path);
      unsigned N = 0;
      for (std::string Line; std::getline(In, Line);) {
        if (Line.find("\"kind\":\"heartbeat\"") == std::string::npos ||
            Line.find("\"scenario\":0,") == std::string::npos)
          continue;
        for (size_t Li = 0; Li != O.Libs.size(); ++Li)
          if (Line.find(std::string("\"lib\":\"") + libName(O.Libs[Li]) +
                        "\"") != std::string::npos) {
            EXPECT_NE(Line.find(Expected(Li)), std::string::npos)
                << "want " << Expected(Li) << "\nin   " << Line;
            ++N;
          }
      }
      return N;
    };

    // The process id keeps concurrent runs of this binary (say a Release
    // and a TSan build) off each other's files.
    const std::string Tag =
        std::to_string(getpid()) + "_" + std::to_string(Workers) + ".jsonl";
    const std::string FreshPath = testing::TempDir() + "hb_fresh" + Tag;
    const std::string ResumedPath = testing::TempDir() + "hb_resumed" + Tag;
    std::remove(FreshPath.c_str());
    std::remove(ResumedPath.c_str());

    // An uninterrupted run that also hands out cadence checkpoints...
    std::vector<SweepCheckpoint> Ckpts;
    {
      Telemetry T(FreshPath);
      ASSERT_TRUE(T.ok());
      SweepControl Ctl;
      Ctl.Telem = &T;
      Ctl.HeartbeatIntervalSec = 1e-4;
      Ctl.CheckpointEveryExecs = 1500;
      Ctl.OnCheckpoint = [&](const SweepCheckpoint &C) { Ckpts.push_back(C); };
      SweepResult R = runSweepResumable(O, Ctl);
      ASSERT_FALSE(R.Interrupted);
      Ref = R.Rep;
    }
    EXPECT_GT(CheckHeartbeats(FreshPath), 0u);

    // ...and a resume of one taken after the first library and a scenario
    // of the second finished: its running total starts from the
    // checkpoint's completed libraries and current-library aggregate.
    auto It = std::find_if(
        Ckpts.begin(), Ckpts.end(),
        [](const SweepCheckpoint &C) { return C.LibIndex && C.ScenarioIndex; });
    ASSERT_NE(It, Ckpts.end()) << "no checkpoint inside the second library";
    {
      Telemetry T(ResumedPath);
      SweepControl Ctl;
      Ctl.Telem = &T;
      Ctl.HeartbeatIntervalSec = 1e-4;
      SweepResult R = runSweepResumable(O, Ctl, &*It);
      ASSERT_FALSE(R.Interrupted);
      EXPECT_EQ(R.Rep.fingerprint(), Ref.fingerprint());
    }
    EXPECT_GT(CheckHeartbeats(ResumedPath), 0u);
    std::remove(FreshPath.c_str());
    std::remove(ResumedPath.c_str());
  }
}
