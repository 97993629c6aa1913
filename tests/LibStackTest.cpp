//===-- tests/LibStackTest.cpp - Stack implementations vs. their specs -----===//
//
// Experiment E4's substance: every explored execution of the Treiber stack
// is checked against StackConsistent (LAT_hb) *and* the LAT_hist_hb
// linearization search of Figure 4 — a total order `to ⊇ lhb` interpreted
// by the sequential stack semantics must exist for every recorded history.
//
//===----------------------------------------------------------------------===//

#include "lib/Locked.h"
#include "lib/TreiberStack.h"
#include "spec/Consistency.h"
#include "spec/Linearization.h"
#include "SimTestUtil.h"

#include <gtest/gtest.h>

#include <memory>

using namespace compass;
using namespace compass::rmc;
using namespace compass::sim;
using namespace compass::spec;

namespace {

enum class StackKind { Treiber, Locked };

const char *stackKindName(StackKind K) {
  return K == StackKind::Treiber ? "treiber" : "locked";
}

std::unique_ptr<lib::SimStack> makeStack(StackKind K, Machine &M,
                                         SpecMonitor &Mon) {
  if (K == StackKind::Treiber)
    return std::make_unique<lib::TreiberStack>(M, Mon, "s");
  return std::make_unique<lib::LockedStack>(M, Mon, "s", /*Capacity=*/8);
}

struct StackExplorationStats {
  uint64_t Checked = 0;
  uint64_t GraphViolations = 0;
  uint64_t AbsViolations = 0;
  uint64_t NoLinearization = 0;
  uint64_t EmptyPops = 0;
  std::string FirstViolation;
};

StackExplorationStats
exploreStack(StackKind K, std::vector<std::vector<Value>> Pushes,
             std::vector<unsigned> Pops, unsigned PreemptionBound) {
  Explorer::Options Opts;
  Opts.PreemptionBound = PreemptionBound;
  Opts.MaxExecutions = 400'000;

  StackExplorationStats Stats;
  std::unique_ptr<SpecMonitor> Mon;
  std::unique_ptr<lib::SimStack> St;
  std::vector<std::vector<Value>> Got;

  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Mon = std::make_unique<SpecMonitor>();
        St = makeStack(K, M, *Mon);
        Got.assign(Pops.size(), {});
        for (auto &Vs : Pushes) {
          Env &E = S.newThread();
          S.start(E, test::pusherThread(E, *St, Vs));
        }
        for (size_t I = 0; I != Pops.size(); ++I) {
          Env &E = S.newThread();
          S.start(E, test::popperThread(E, *St, Pops[I], &Got[I]));
        }
      },
      [&](Machine &M, Scheduler &, Scheduler::RunResult R) {
        EXPECT_NE(R, Scheduler::RunResult::Race) << M.raceMessage();
        if (R != Scheduler::RunResult::Done)
          return;
        ++Stats.Checked;
        auto GR = checkConsistent(Mon->graph(), St->objId(), SeqSpec::Stack);
        if (!GR.ok()) {
          ++Stats.GraphViolations;
          if (Stats.FirstViolation.empty())
            Stats.FirstViolation = GR.str() + Mon->graph().str();
        }
        if (!checkAbsState(Mon->graph(), St->objId(), SeqSpec::Stack).ok())
          ++Stats.AbsViolations;
        auto LR = findLinearization(Mon->graph(), St->objId(),
                                    SeqSpec::Stack);
        if (!LR.Found) {
          ++Stats.NoLinearization;
          if (Stats.FirstViolation.empty())
            Stats.FirstViolation =
                "no linearization for:\n" + Mon->graph().str();
        }
        for (auto &Vs : Got)
          for (Value V : Vs)
            if (V == graph::EmptyVal)
              ++Stats.EmptyPops;
      });
  EXPECT_GT(Sum.Executions, 0u);
  EXPECT_EQ(Sum.Races, 0u);
  return Stats;
}

} // namespace

class StackMicroTest : public ::testing::TestWithParam<StackKind> {};

TEST_P(StackMicroTest, OnePushOnePopConsistentAndLinearizable) {
  auto Stats = exploreStack(GetParam(), {{5}}, {1}, ~0u);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.NoLinearization, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.AbsViolations, 0u);
  EXPECT_GT(Stats.EmptyPops, 0u);
}

TEST_P(StackMicroTest, TwoPushesTwoPopsLifo) {
  auto Stats = exploreStack(GetParam(), {{1, 2}}, {2}, 3);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.NoLinearization, 0u) << Stats.FirstViolation;
}

TEST_P(StackMicroTest, ConcurrentPushersConsistent) {
  auto Stats = exploreStack(GetParam(), {{1}, {2}}, {2}, 2);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.NoLinearization, 0u) << Stats.FirstViolation;
}

TEST_P(StackMicroTest, TwoPoppersConsistent) {
  auto Stats = exploreStack(GetParam(), {{1, 2}}, {1, 1}, 2);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.NoLinearization, 0u) << Stats.FirstViolation;
}

INSTANTIATE_TEST_SUITE_P(AllStacks, StackMicroTest,
                         ::testing::Values(StackKind::Treiber,
                                           StackKind::Locked),
                         [](const auto &Info) {
                           return stackKindName(Info.param);
                         });

/// The single-attempt operations, without and with a reclamation domain
/// (the parameter is the domain's thread count; 0 builds none).
class StackTryOpsTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(StackTryOpsTest, TryPushTryPopSingleThread) {
  Explorer Ex;
  ASSERT_TRUE(Ex.beginExecution());
  Machine M(Ex);
  Scheduler S(M, Ex);
  SpecMonitor Mon;
  lib::TreiberStack St(M, Mon, "s", lib::Mutation::None, GetParam());
  Value Popped1 = 0, Popped2 = 0, PoppedEmpty = 0;
  bool Pushed = false;

  struct Body {
    static Task<void> run(Env &E, lib::TreiberStack &St, bool *Pushed,
                          Value *P1, Value *P2, Value *PE) {
      auto T1 = St.tryPush(E, 7);
      *Pushed = co_await T1;
      auto T2 = St.tryPop(E);
      *P1 = co_await T2;
      auto T3 = St.tryPop(E); // Empty now.
      *PE = co_await T3;
      auto T4 = St.push(E, 9);
      co_await T4;
      auto T5 = St.pop(E);
      *P2 = co_await T5;
    }
  };
  Env &E0 = S.newThread();
  S.start(E0, Body::run(E0, St, &Pushed, &Popped1, &Popped2, &PoppedEmpty));
  EXPECT_EQ(S.run(), Scheduler::RunResult::Done);
  EXPECT_FALSE(M.raceDetected()) << M.raceMessage();
  EXPECT_TRUE(Pushed);
  EXPECT_EQ(Popped1, 7u);
  EXPECT_EQ(PoppedEmpty, graph::EmptyVal);
  EXPECT_EQ(Popped2, 9u);
  auto R = checkConsistent(Mon.graph(), St.objId(), SeqSpec::Stack);
  EXPECT_TRUE(R.ok()) << R.str();
  Ex.endExecution(Scheduler::RunResult::Done);
}

INSTANTIATE_TEST_SUITE_P(BothModes, StackTryOpsTest, ::testing::Values(0u, 1u),
                         [](const auto &Info) {
                           return Info.param ? "ebr" : "plain";
                         });
