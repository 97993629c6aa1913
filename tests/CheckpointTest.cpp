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
#include "lib/MsQueue.h"
#include "sim/Checkpoint.h"
#include "sim/ParallelExplorer.h"
#include "spec/Consistency.h"
#include "spec/SpecMonitor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <vector>

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
          return spec::checkQueueConsistent(St->Mon->graph(),
                                            St->Q->objId())
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
    if (X.Chosen != Y.Chosen || X.Limit != Y.Limit || X.Count != Y.Count)
      return false;
    // Tags are interned on parse; compare by *content* (the parsed side
    // must print identically, pointer identity is not required).
    if (std::string_view(X.Tag ? X.Tag : "") !=
        std::string_view(Y.Tag ? Y.Tag : ""))
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
  // The previous grammar (v1, with the duplicate-rf cache counter in every
  // stat record) is rejected with a diagnostic naming the wanted version.
  std::string Old = Text;
  Old.replace(0, Old.find('\n'), "compass sweep-checkpoint v1");
  BadCk(Old);
  EXPECT_NE(Err.find("want 'compass sweep-checkpoint v2'"), std::string::npos)
      << Err;
  BadCk(Text.substr(0, Text.size() - 8)); // missing footer
  std::string Wrong = Text;
  size_t P = Wrong.find("libs ");
  ASSERT_NE(P, std::string::npos);
  Wrong.replace(P, 6, "libs 0"); // empty library list
  BadCk(Wrong);
  // A config line without the reduction/engine words (the pre-fix grammar)
  // must be rejected, not silently defaulted.
  Wrong = Text;
  P = Wrong.find("\ngen ");
  ASSERT_NE(P, std::string::npos);
  size_t CfgEnd = Wrong.rfind(' ', P - 1);
  size_t CfgEnd2 = Wrong.rfind(' ', CfgEnd - 1);
  Wrong.erase(CfgEnd2, P - CfgEnd2); // strip "<red> <engine>"
  BadCk(Wrong);
}

TEST(SweepCheckpointFormat, RecordsReductionModeAndEnginePath) {
  using namespace compass::check;

  // Regression: the checkpoint writer used to serialize the source-set
  // mode as "none", so a source-set sweep silently resumed unreduced (and
  // fingerprint-diverged). The config line must round-trip the exact mode
  // and engine path the executed share ran under.
  for (ReductionMode Red : {ReductionMode::None, ReductionMode::SourceSet}) {
    SweepOptions O;
    O.Seed = 5;
    O.ScenariosPerLib = 2;
    O.Workers = 2;
    O.MaxExecutionsPerScenario = 60000;
    O.Reduction = Red;
    O.Engine = EnginePath::RootReplay;
    O.Libs = {Lib::MsQueue, Lib::TreiberStack};
    std::atomic<bool> Stop{true};
    SweepControl Ctl;
    Ctl.StopRequested = &Stop;
    SweepResult R = runSweepResumable(O, Ctl);
    ASSERT_TRUE(R.Interrupted);
    EXPECT_EQ(R.Ckpt.Reduction, Red);
    EXPECT_EQ(R.Ckpt.Engine, EnginePath::RootReplay);

    std::string Text = serializeSweepCheckpoint(R.Ckpt);
    std::istringstream In(Text);
    std::string Header, Config;
    ASSERT_TRUE(std::getline(In, Header) && std::getline(In, Config));
    std::string Want =
        std::string(" ") + reductionModeName(Red) + " root";
    EXPECT_NE(Config.find(Want), std::string::npos)
        << "config line does not record the mode: " << Config;

    SweepCheckpoint Back;
    std::string Err;
    ASSERT_TRUE(parseSweepCheckpoint(Text, Back, Err)) << Err;
    EXPECT_EQ(Back.Reduction, Red) << reductionModeName(Red);
    EXPECT_EQ(Back.Engine, EnginePath::RootReplay);
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
