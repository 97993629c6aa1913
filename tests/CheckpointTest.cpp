//===-- tests/CheckpointTest.cpp - Checkpoint/resume exactness -------------===//
//
// The crash-resilience suite (DESIGN.md Section 9). Three layers:
//
//  * text round-trips: a SweepCheckpoint survives serialize -> parse
//    bit-exactly, and malformed or older-version inputs are rejected with
//    a diagnostic instead of a crash or a silently-wrong resume;
//  * exploration interrupts: a stop request or a deadline ends an
//    exploration early and marks it interrupted, and only while work is
//    left;
//  * sweep resume: an interrupted runSweepResumable, resumed (possibly
//    repeatedly, at different worker counts, under any time budget), ends
//    with the report of an uninterrupted sweep; its checkpoints keep every
//    finished scenario, folded or ahead of the fold, and its heartbeats
//    carry the folded totals.
//
//===----------------------------------------------------------------------===//

#include "SimTestUtil.h"
#include "check/Checkpoint.h"
#include "check/Telemetry.h"
#include "lib/MsQueue.h"
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
using namespace compass::check;
using namespace compass::rmc;
using namespace compass::sim;

namespace {

/// The E2 MS-queue configuration (the same shape ParallelTest uses): big
/// enough to interrupt mid-flight, small enough to exhaust quickly. Its
/// check raises \p Stop on its \p StopAt-th call (never when 0).
Workload msQueueWorkload(unsigned Workers,
                         std::shared_ptr<std::atomic<bool>> Stop = nullptr,
                         uint64_t StopAt = 0) {
  Explorer::Options Opts;
  Opts.Workers = Workers;
  Opts.PreemptionBound = 2;
  Opts.MaxExecutions = 500'000;
  Opts.Reduction = ReductionMode::SourceSet;
  auto Checks = std::make_shared<std::atomic<uint64_t>>(0);
  return Workload(Opts, [Stop, StopAt, Checks]() -> Workload::Body {
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
        [St, Stop, StopAt, Checks](Machine &, Scheduler &,
                                   Scheduler::RunResult R) {
          if (Stop && Checks->fetch_add(1) + 1 == StopAt)
            Stop->store(true);
          if (R != Scheduler::RunResult::Done)
            return false;
          return spec::checkConsistent(St->Mon->graph(), St->Q->objId(),
                                       spec::SeqSpec::Queue)
              .ok();
        }};
  });
}

/// The whole report apart from its worker count.
std::string reportJson(SweepReport Rep) {
  Rep.Workers = 0;
  return Rep.json();
}

/// The folded position of \p K in sweep order.
size_t foldedCount(const SweepCheckpoint &K) {
  return K.LibIndex * K.ScenariosPerLib + K.ScenarioIndex;
}

/// A checkpoint's per-library aggregates account for exactly the scenarios
/// before its position, and its ahead records for distinct scenarios past
/// it: none counted twice, none lost.
void expectPositionMatchesAggregates(const SweepCheckpoint &K) {
  ASSERT_EQ(K.DoneLibs.size(), K.LibIndex);
  for (const LibSweepStats &St : K.DoneLibs)
    EXPECT_EQ(St.Scenarios, K.ScenariosPerLib) << libName(St.L);
  EXPECT_EQ(K.CurLib.Scenarios, K.ScenarioIndex) << libName(K.CurLib.L);
  size_t Min = foldedCount(K) + 1;
  for (const FinishedScenario &F : K.Ahead) {
    EXPECT_GE(F.Index, Min);
    EXPECT_EQ(F.Stats.Scenarios, 1u);
    Min = F.Index + 1;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Sweep-checkpoint text round-trips
//===----------------------------------------------------------------------===//

TEST(SweepCheckpointFormat, RoundTripsAndRejectsMalformed) {
  // A cadence checkpoint from the start of the second library, taken
  // after every finished scenario but the last.
  SweepOptions O;
  O.Seed = 5;
  O.ScenariosPerLib = 2;
  O.Workers = 1;
  O.MaxExecutionsPerScenario = 60000;
  O.Libs = {Lib::MsQueue, Lib::TreiberStack};
  std::vector<SweepCheckpoint> Ckpts;
  SweepControl Ctl;
  Ctl.CheckpointEveryExecs = 1;
  Ctl.OnCheckpoint = [&](const SweepCheckpoint &K) { Ckpts.push_back(K); };
  ASSERT_FALSE(runSweepResumable(O, Ctl).Interrupted);
  ASSERT_EQ(Ckpts.size(), 3u) << "one per finished scenario but the last";
  SweepCheckpoint K = Ckpts[1];
  EXPECT_EQ(K.LibIndex, 1u);
  EXPECT_EQ(K.ScenarioIndex, 0u);
  EXPECT_TRUE(K.Ahead.empty());
  // The last scenario as if it had finished ahead of the fold, with a
  // violation to carry.
  FinishedScenario F;
  F.Index = 3;
  F.Stats.L = Lib::TreiberStack;
  F.Stats.Scenarios = 1;
  F.Stats.Executions = 17;
  F.Stats.Violations = 2;
  F.Stats.MaxDepth = 9;
  F.Stats.Truncated = 1;
  F.FirstViolation = {0, 2, 1};
  K.Ahead.push_back(F);

  std::string Text = serializeSweepCheckpoint(K);
  SweepCheckpoint Back;
  std::string Err;
  ASSERT_TRUE(parseSweepCheckpoint(Text, Back, Err)) << Err;
  EXPECT_EQ(Back.Seed, K.Seed);
  EXPECT_EQ(Back.ScenariosPerLib, K.ScenariosPerLib);
  EXPECT_EQ(Back.MaxExecutionsPerScenario, K.MaxExecutionsPerScenario);
  EXPECT_EQ(Back.Libs, K.Libs);
  EXPECT_EQ(Back.Fp, K.Fp);
  EXPECT_EQ(Back.LibIndex, K.LibIndex);
  EXPECT_EQ(Back.ScenarioIndex, K.ScenarioIndex);
  EXPECT_EQ(Back.executions(), K.executions());
  ASSERT_EQ(Back.Ahead.size(), 1u);
  EXPECT_EQ(Back.Ahead[0].Index, 3u);
  EXPECT_EQ(Back.Ahead[0].Stats.L, Lib::TreiberStack);
  EXPECT_EQ(Back.Ahead[0].Stats.Scenarios, 1u);
  EXPECT_EQ(Back.Ahead[0].Stats.Executions, 17u);
  EXPECT_EQ(Back.Ahead[0].Stats.Violations, 2u);
  EXPECT_EQ(Back.Ahead[0].Stats.MaxDepth, 9u);
  EXPECT_EQ(Back.Ahead[0].Stats.Truncated, 1u);
  EXPECT_EQ(Back.Ahead[0].FirstViolation, F.FirstViolation);
  // Deterministic serialization.
  EXPECT_EQ(serializeSweepCheckpoint(Back), Text);

  auto BadCk = [&](std::string T) {
    Err.clear();
    EXPECT_FALSE(parseSweepCheckpoint(T, Back, Err));
    EXPECT_FALSE(Err.empty());
  };
  BadCk("");
  BadCk("compass sweep-checkpoint v9\n");
  // Earlier grammars (v3 could embed a half-explored scenario's frontier,
  // v2 named an engine path on the config line, v1 carried the
  // duplicate-rf cache counter in every stat record) are rejected with a
  // diagnostic naming the wanted version.
  for (const char *OldHeader :
       {"compass sweep-checkpoint v1", "compass sweep-checkpoint v2",
        "compass sweep-checkpoint v3"}) {
    std::string Old = Text;
    Old.replace(0, Old.find('\n'), OldHeader);
    BadCk(Old);
    EXPECT_NE(Err.find("want 'compass sweep-checkpoint v4'"),
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

  // Every record is read to its end: a field left over (say v3's two
  // in-flight fields on the progress line) is an error.
  auto Edit = [&Text](const std::string &From, const std::string &To) {
    std::string T = Text;
    size_t At = T.find(From);
    EXPECT_NE(At, std::string::npos) << From;
    if (At != std::string::npos)
      T.replace(At, From.size(), To);
    return T;
  };
  const std::string AheadLine = "ahead 3 17 0 0 0 2 0 0 0 9 0 1 3 0 2 1\n";
  ASSERT_NE(Text.find(AheadLine), std::string::npos) << Text;
  BadCk(Edit(" 1 1\nstat ", " 1 1 0 0\nstat "));
  BadCk(Edit(AheadLine, "ahead 3 17 0 0 0 2 0 0 0 9 0 1 3 0 2 1 5\n"));
  BadCk(Edit("\nlib ms_queue\n", "\nlib ms_queue x\n"));
  // Ahead records lie past the position, inside the sweep, one per line
  // as the progress record counts them, and a truncation flag is 0 or 1.
  BadCk(Edit("ahead 3 ", "ahead 2 "));
  BadCk(Edit("ahead 3 ", "ahead 4 "));
  BadCk(Edit(AheadLine, ""));
  BadCk(Edit(AheadLine, AheadLine + AheadLine));
  BadCk(Edit(" 9 0 1 3 0 2 1\n", " 9 0 2 3 0 2 1\n"));
  BadCk(Edit(" 9 0 1 3 0 2 1\n", " 9 0 1 4 0 2 1\n"));
}

TEST(SweepCheckpointFormat, ExecutionsCountsEveryFinishedScenario) {
  SweepCheckpoint K;
  K.DoneLibs.resize(2);
  K.DoneLibs[0].Executions = 5;
  K.DoneLibs[1].Executions = 7;
  K.CurLib.Executions = 11;
  K.Ahead.resize(1);
  K.Ahead[0].Stats.Executions = 13;
  EXPECT_EQ(K.executions(), 36u);
}

TEST(SweepCheckpointFormat, RecordsReductionMode) {
  // Regression: the checkpoint writer used to serialize the source-set
  // mode as "none", so a source-set sweep silently resumed unreduced (and
  // fingerprint-diverged). The config line must round-trip the exact mode
  // the folded scenarios ran under.
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
// Exploration interrupts
//===----------------------------------------------------------------------===//

TEST(ExploreInterrupt, StopRequestedBeforeTheCallRunsNothing) {
  // Every worker checks the stop flag before each execution, so a request
  // already set when the call starts interrupts before the first one.
  std::atomic<bool> Stop{true};
  ExploreControl Ctl;
  Ctl.StopRequested = &Stop;
  for (unsigned Workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    ExploreResult R = exploreResumable(msQueueWorkload(Workers), Ctl);
    EXPECT_TRUE(R.Interrupted);
    EXPECT_EQ(R.Sum.Executions, 0u);
    EXPECT_FALSE(R.Sum.Exhausted);
  }
}

TEST(ExploreInterrupt, OnlyLeftoverWorkMakesAnInterrupt) {
  const Explorer::Summary Ref = explore(msQueueWorkload(1));
  ASSERT_TRUE(Ref.Exhausted);
  ASSERT_GE(Ref.Executions, 100u) << "tree too small to interrupt";

  // A stop raised by the tenth execution's check ends a one-worker DFS
  // right after it, and at four workers after each worker's current
  // execution.
  for (unsigned Workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    auto Stop = std::make_shared<std::atomic<bool>>(false);
    ExploreControl Ctl;
    Ctl.StopRequested = Stop.get();
    ExploreResult R =
        exploreResumable(msQueueWorkload(Workers, Stop, 10), Ctl);
    EXPECT_TRUE(R.Interrupted);
    EXPECT_FALSE(R.Sum.Exhausted);
    if (Workers == 1) {
      EXPECT_EQ(R.Sum.Executions, 10u);
    }
    EXPECT_LT(R.Sum.Executions, Ref.Executions);
  }

  // A stop raised by the last execution finds no work left: the result is
  // whole, not interrupted.
  auto Stop = std::make_shared<std::atomic<bool>>(false);
  ExploreControl Ctl;
  Ctl.StopRequested = Stop.get();
  ExploreResult R =
      exploreResumable(msQueueWorkload(1, Stop, Ref.Executions), Ctl);
  EXPECT_TRUE(Stop->load());
  EXPECT_FALSE(R.Interrupted);
  EXPECT_TRUE(R.Sum.coreEquals(Ref))
      << "reference: " << Ref.str() << "\nstopped:   " << R.Sum.str();
}

TEST(ExploreInterrupt, DeadlineEndsTheExploration) {
  ExploreControl Ctl;
  Ctl.DeadlineSec = 1e-9;
  ExploreResult R = exploreResumable(msQueueWorkload(2), Ctl);
  EXPECT_TRUE(R.Interrupted);
  EXPECT_FALSE(R.Sum.Exhausted);
}

//===----------------------------------------------------------------------===//
// Sweep-level resume exactness
//===----------------------------------------------------------------------===//

TEST(SweepResume, ReportExactAcrossInterruptAndWorkers) {
  SweepOptions O;
  O.Seed = 5;
  O.ScenariosPerLib = 2;
  O.Workers = 2;
  O.MaxExecutionsPerScenario = 60000;
  O.Libs = {Lib::MsQueue, Lib::TreiberStack, Lib::Exchanger, Lib::SpscRing};
  const size_t NumScenarios = O.Libs.size() * O.ScenariosPerLib;

  SweepReport Ref = runSweep(O);

  // Interrupt with a fixed time budget, then resume (rotating the worker
  // count) until the sweep completes. Each hop round-trips the checkpoint
  // through its text form. The first scenario a run claims runs to its
  // end whatever the budget, so every hop folds at least one scenario,
  // even under a budget shorter than any scenario; under one that is
  // spent before the second claim, each run folds exactly one.
  for (double Budget : {0.05, 1e-9}) {
    SCOPED_TRACE("budget=" + std::to_string(Budget));
    SweepControl Ctl;
    Ctl.TimeBudgetSec = Budget;
    SweepResult R = runSweepResumable(O, Ctl);
    unsigned Hops = 0;
    size_t Position = 0;
    SweepCheckpoint Ckpt;
    while (R.Interrupted) {
      ASSERT_LT(++Hops, 200u) << "sweep resume failed to make progress";
      expectPositionMatchesAggregates(R.Ckpt);
      ASSERT_GT(foldedCount(R.Ckpt), Position)
          << "hop " << Hops << " folded no scenario";
      Position = foldedCount(R.Ckpt);
      std::string Err;
      ASSERT_TRUE(
          parseSweepCheckpoint(serializeSweepCheckpoint(R.Ckpt), Ckpt, Err))
          << Err;
      SweepOptions O2 = O;
      O2.Workers = 1 + (Hops % 4);
      R = runSweepResumable(O2, Ctl, &Ckpt);
    }
    if (Budget < 1e-6) {
      EXPECT_EQ(Hops, NumScenarios - 1);
    }
    EXPECT_EQ(reportJson(R.Rep), reportJson(Ref))
        << "uninterrupted:\n" << Ref.str() << "resumed (" << Hops
        << " hops):\n" << R.Rep.str();
  }
}

TEST(SweepResume, AheadScenariosFoldWithoutRerunning) {
  // One scenario per library, so the reference report's per-library rows
  // are the scenarios' own results.
  SweepOptions O;
  O.Seed = 5;
  O.ScenariosPerLib = 1;
  O.Workers = 1;
  O.MaxExecutionsPerScenario = 60000;
  O.Libs = {Lib::MsQueue, Lib::TreiberStack, Lib::Exchanger, Lib::SpscRing};
  std::vector<SweepCheckpoint> Ckpts;
  SweepControl Ctl;
  Ctl.CheckpointEveryExecs = 1;
  Ctl.OnCheckpoint = [&](const SweepCheckpoint &K) { Ckpts.push_back(K); };
  const SweepReport Ref = runSweepResumable(O, Ctl).Rep;
  ASSERT_EQ(Ckpts.size(), 3u);

  // The checkpoint after the first scenario, as if the last two had
  // finished while the second was running.
  SweepCheckpoint K = Ckpts[0];
  ASSERT_EQ(foldedCount(K), 1u);
  for (size_t I : {2u, 3u}) {
    FinishedScenario F;
    F.Index = I;
    F.Stats = Ref.PerLib[I];
    F.Stats.FirstBadScenario = ~0u;
    F.Stats.FirstBad.clear();
    K.Ahead.push_back(F);
  }
  expectPositionMatchesAggregates(K);
  for (unsigned Workers : {1u, 3u}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    SweepOptions O2 = O;
    O2.Workers = Workers;
    // At heartbeat interval 0 each scenario the resume explores writes
    // one heartbeat: only the second scenario may run.
    const std::string Path = testing::TempDir() + "ahead" +
                             std::to_string(getpid()) + "_" +
                             std::to_string(Workers) + ".jsonl";
    std::remove(Path.c_str());
    SweepResult R;
    {
      Telemetry T(Path);
      ASSERT_TRUE(T.ok());
      SweepControl Ctl2;
      Ctl2.Telem = &T;
      Ctl2.HeartbeatIntervalSec = 0;
      R = runSweepResumable(O2, Ctl2, &K);
    }
    ASSERT_FALSE(R.Interrupted);
    EXPECT_EQ(reportJson(R.Rep), reportJson(Ref))
        << "uninterrupted:\n" << Ref.str() << "resumed:\n" << R.Rep.str();
    std::ifstream In(Path);
    unsigned Explored = 0;
    for (std::string Line; std::getline(In, Line);)
      Explored += Line.find("\"kind\":\"heartbeat\"") != std::string::npos;
    EXPECT_EQ(Explored, 1u) << "a scenario with a record ran again";
    std::remove(Path.c_str());
  }

  // The resume folds the records as they stand: it does not re-run their
  // scenarios.
  K.Ahead.back().Stats.Executions += 1;
  SweepResult R = runSweepResumable(O, SweepControl{}, &K);
  ASSERT_FALSE(R.Interrupted);
  EXPECT_EQ(R.Rep.PerLib[3].Executions, Ref.PerLib[3].Executions + 1);
  EXPECT_EQ(R.Rep.PerLib[1].Executions, Ref.PerLib[1].Executions);

  // A record's first violation is diagnosed when it folds, by replaying
  // its decisions on the regenerated scenario.
  K.Ahead.front().Stats.Violations = 1;
  R = runSweepResumable(O, SweepControl{}, &K);
  ASSERT_FALSE(R.Interrupted);
  const LibSweepStats &Bad = R.Rep.PerLib[2];
  EXPECT_EQ(Bad.FirstBadScenario, 0u);
  const Scenario S = generateScenario(
      Bad.L, scenarioSeed(O.Seed, Bad.L, 0), O.Gen);
  EXPECT_EQ(Bad.FirstBad.rfind(S.str() + " | ", 0), 0u) << Bad.FirstBad;
}

TEST(SweepResume, AStopKeepsTheScenariosFinishedAhead) {
  // ms_queue's scenario 4 at seed 1 runs to the 20,000-execution cap (tens
  // of ms) while the other worker finishes the short hw_queue scenarios
  // after it; those wait ahead of the fold. A stop raised then keeps them.
  SweepOptions O;
  O.Seed = 1;
  O.ScenariosPerLib = 5;
  O.Workers = 2;
  O.MaxExecutionsPerScenario = 20000;
  O.Libs = {Lib::MsQueue, Lib::HwQueue};
  const SweepReport Ref = runSweep(O);

  std::atomic<bool> Stop{false};
  uint64_t SeenExecs = 0;
  SweepControl Ctl;
  Ctl.StopRequested = &Stop;
  Ctl.CheckpointEveryExecs = 1;
  Ctl.OnCheckpoint = [&](const SweepCheckpoint &K) {
    if (!K.Ahead.empty() && !Stop) {
      SeenExecs = K.executions();
      Stop = true;
    }
  };
  SweepResult R = runSweepResumable(O, Ctl);
  ASSERT_TRUE(Stop) << "no scenario finished ahead of the fold";
  ASSERT_TRUE(R.Interrupted);
  expectPositionMatchesAggregates(R.Ckpt);
  EXPECT_FALSE(R.Ckpt.Ahead.empty());
  EXPECT_GE(R.Ckpt.executions(), SeenExecs);

  std::string Err;
  SweepCheckpoint Back;
  ASSERT_TRUE(
      parseSweepCheckpoint(serializeSweepCheckpoint(R.Ckpt), Back, Err))
      << Err;
  SweepResult Done = runSweepResumable(O, SweepControl{}, &Back);
  ASSERT_FALSE(Done.Interrupted);
  EXPECT_EQ(reportJson(Done.Rep), reportJson(Ref))
      << "uninterrupted:\n" << Ref.str() << "resumed:\n" << Done.Rep.str();
}

TEST(SweepResume, StopFlagProducesResumableCheckpoint) {
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
  EXPECT_EQ(R.Ckpt.LibIndex, 0u);
  EXPECT_EQ(R.Ckpt.ScenarioIndex, 0u);
  EXPECT_EQ(R.Ckpt.executions(), 0u);

  Stop = false;
  SweepResult Done = runSweepResumable(O, Ctl, &R.Ckpt);
  ASSERT_FALSE(Done.Interrupted);
  EXPECT_EQ(reportJson(Done.Rep), reportJson(Ref))
      << "uninterrupted:\n" << Ref.str() << "resumed:\n" << Done.Rep.str();
}

TEST(SweepResume, CadenceCheckpointsAreEachResumable) {
  SweepOptions O;
  O.Seed = 5;
  O.ScenariosPerLib = 3;
  O.Workers = 2;
  O.MaxExecutionsPerScenario = 30000;
  O.Libs = {Lib::MsQueue, Lib::TreiberStack};

  SweepReport Ref = runSweep(O);

  // Collect cadence checkpoints from an uninterrupted run: one at the
  // first scenario boundary after every 1,500 folded executions.
  std::vector<std::string> Ckpts;
  SweepControl Ctl;
  Ctl.CheckpointEveryExecs = 1500;
  Ctl.OnCheckpoint = [&](const SweepCheckpoint &C) {
    expectPositionMatchesAggregates(C);
    Ckpts.push_back(serializeSweepCheckpoint(C));
  };
  SweepResult R = runSweepResumable(O, Ctl);
  ASSERT_FALSE(R.Interrupted);
  EXPECT_EQ(reportJson(R.Rep), reportJson(Ref));
  ASSERT_GE(Ckpts.size(), 2u) << "cadence produced too few checkpoints";

  // Every single one must resume to the reference report.
  for (size_t I = 0; I != Ckpts.size(); ++I) {
    SweepCheckpoint C;
    std::string Err;
    ASSERT_TRUE(parseSweepCheckpoint(Ckpts[I], C, Err))
        << "checkpoint " << I << ": " << Err;
    SweepOptions O2 = O;
    O2.Workers = 1 + (I % 4);
    SweepResult Done = runSweepResumable(O2, SweepControl{}, &C);
    ASSERT_FALSE(Done.Interrupted);
    EXPECT_EQ(reportJson(Done.Rep), reportJson(Ref))
        << "checkpoint " << I << " resumed to a different report";
  }
}

TEST(SweepResume, HeartbeatsCarryTheFoldedTotals) {
  for (unsigned Workers : {1u, 2u}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    SweepOptions O;
    O.Seed = 5;
    O.ScenariosPerLib = 2;
    O.Workers = Workers;
    O.MaxExecutionsPerScenario = 60000;
    O.Libs = {Lib::TreiberStack, Lib::MsQueue, Lib::ElimStack};
    const SweepReport Ref = runSweep(O);

    // At interval 0 every finished scenario writes a heartbeat, whose
    // "sweep" object totals the folded scenarios: at a library boundary,
    // the libraries before it.
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
             ",\"source_pruned\":" + std::to_string(T.SourcePruned) +
             ",\"truncated\":" + std::to_string(T.Truncated) + "}";
    };
    // Checks the heartbeats of \p Path; returns the folded-scenario counts
    // they carry, in order.
    auto CheckHeartbeats = [&](const std::string &Path) {
      std::ifstream In(Path);
      std::vector<unsigned> Counts;
      for (std::string Line; std::getline(In, Line);) {
        if (Line.find("\"kind\":\"heartbeat\"") == std::string::npos)
          continue;
        EXPECT_NE(Line.find("\"workers\":" + std::to_string(Workers)),
                  std::string::npos)
            << Line;
        const std::string Key = "\"sweep\":{\"scenarios\":";
        size_t P = Line.find(Key);
        EXPECT_NE(P, std::string::npos) << Line;
        if (P == std::string::npos)
          continue;
        unsigned N = std::stoul(Line.substr(P + Key.size()));
        Counts.push_back(N);
        if (N % O.ScenariosPerLib == 0) {
          EXPECT_NE(Line.find(Expected(N / O.ScenariosPerLib)),
                    std::string::npos)
              << "want " << Expected(N / O.ScenariosPerLib) << "\nin   "
              << Line;
        }
      }
      return Counts;
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
      Ctl.HeartbeatIntervalSec = 0;
      Ctl.CheckpointEveryExecs = 1;
      Ctl.OnCheckpoint = [&](const SweepCheckpoint &C) { Ckpts.push_back(C); };
      ASSERT_FALSE(runSweepResumable(O, Ctl).Interrupted);
    }
    // One heartbeat per finished scenario; at one worker each folds its
    // scenario at once, at two one may wait for an earlier one.
    auto ExpectFoldedCounts = [&](const std::vector<unsigned> &Counts,
                                  size_t Finished, unsigned From) {
      ASSERT_EQ(Counts.size(), Finished);
      EXPECT_TRUE(std::is_sorted(Counts.begin(), Counts.end()));
      EXPECT_EQ(Counts.back(), 6u);
      if (Workers == 1) {
        for (size_t J = 0; J != Counts.size(); ++J)
          EXPECT_EQ(Counts[J], From + J + 1);
      }
    };
    ExpectFoldedCounts(CheckHeartbeats(FreshPath), 6, 0);

    // ...and a resume of the one taken at the third finished scenario (at
    // one worker, after the first library and a scenario of the second):
    // its totals start from the checkpoint's.
    ASSERT_EQ(Ckpts.size(), 5u) << "one per finished scenario but the last";
    auto It = Ckpts.begin() + 2;
    if (Workers == 1) {
      EXPECT_EQ(foldedCount(*It), 3u);
    }
    {
      Telemetry T(ResumedPath);
      SweepControl Ctl;
      Ctl.Telem = &T;
      Ctl.HeartbeatIntervalSec = 0;
      SweepResult R = runSweepResumable(O, Ctl, &*It);
      ASSERT_FALSE(R.Interrupted);
      EXPECT_EQ(reportJson(R.Rep), reportJson(Ref));
    }
    ExpectFoldedCounts(CheckHeartbeats(ResumedPath),
                       6 - foldedCount(*It) - It->Ahead.size(),
                       static_cast<unsigned>(foldedCount(*It)));
    std::remove(FreshPath.c_str());
    std::remove(ResumedPath.c_str());
  }
}
