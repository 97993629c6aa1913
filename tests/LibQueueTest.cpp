//===-- tests/LibQueueTest.cpp - Queue implementations vs. their specs -----===//
//
// Experiment E2's substance as tests: every explored execution of each
// queue implementation is checked against QueueConsistent (the paper's
// LAT_hb / LAT_abs_hb instances, Figure 2). The Michael-Scott and locked
// queues additionally satisfy the abstract-state replay; the relaxed
// Herlihy-Wing queue demonstrably does *not* (Section 3.2's claim), while
// still satisfying the graph-only spec.
//
//===----------------------------------------------------------------------===//

#include "lib/HwQueue.h"
#include "lib/Locked.h"
#include "lib/MsQueue.h"
#include "spec/Consistency.h"
#include "SimTestUtil.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

using namespace compass;
using namespace compass::rmc;
using namespace compass::sim;
using namespace compass::spec;
using compass::graph::EmptyVal;

namespace {

enum class QueueKind { Ms, Hw, Locked };

const char *queueKindName(QueueKind K) {
  switch (K) {
  case QueueKind::Ms:
    return "ms";
  case QueueKind::Hw:
    return "hw";
  case QueueKind::Locked:
    return "locked";
  }
  return "?";
}

std::unique_ptr<lib::SimQueue> makeQueue(QueueKind K, Machine &M,
                                         SpecMonitor &Mon) {
  switch (K) {
  case QueueKind::Ms:
    return std::make_unique<lib::MsQueue>(M, Mon, "q");
  case QueueKind::Hw:
    return std::make_unique<lib::HwQueue>(M, Mon, "q", /*Capacity=*/8);
  case QueueKind::Locked:
    return std::make_unique<lib::LockedQueue>(M, Mon, "q", /*Capacity=*/8);
  }
  return nullptr;
}

struct QueueExplorationStats {
  uint64_t Checked = 0;
  uint64_t GraphViolations = 0;
  uint64_t AbsViolations = 0;
  uint64_t EmptyDeqs = 0;
  std::string FirstGraphViolation;
};

/// Runs the workload (one enqueuer thread per entry of \p Enqs, one
/// dequeuer thread issuing \p Deqs[i] dequeues) over all explored
/// executions, checking consistency on each.
QueueExplorationStats
exploreQueue(QueueKind K, std::vector<std::vector<Value>> Enqs,
             std::vector<unsigned> Deqs, unsigned PreemptionBound,
             uint64_t MaxExecutions = 400'000) {
  Explorer::Options Opts;
  Opts.PreemptionBound = PreemptionBound;
  Opts.MaxExecutions = MaxExecutions;

  QueueExplorationStats Stats;
  std::unique_ptr<SpecMonitor> Mon;
  std::unique_ptr<lib::SimQueue> Q;
  std::vector<std::vector<Value>> Got;

  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Mon = std::make_unique<SpecMonitor>();
        Q = makeQueue(K, M, *Mon);
        Got.assign(Deqs.size(), {});
        for (auto &Vs : Enqs) {
          Env &E = S.newThread();
          S.start(E, test::enqueuerThread(E, *Q, Vs));
        }
        for (size_t I = 0; I != Deqs.size(); ++I) {
          Env &E = S.newThread();
          S.start(E, test::dequeuerThread(E, *Q, Deqs[I], &Got[I]));
        }
      },
      [&](Machine &M, Scheduler &, Scheduler::RunResult R) {
        EXPECT_NE(R, Scheduler::RunResult::Race) << M.raceMessage();
        EXPECT_NE(R, Scheduler::RunResult::Deadlock);
        if (R != Scheduler::RunResult::Done)
          return;
        ++Stats.Checked;
        auto GR = checkConsistent(Mon->graph(), Q->objId(), SeqSpec::Queue);
        if (!GR.ok()) {
          ++Stats.GraphViolations;
          if (Stats.FirstGraphViolation.empty())
            Stats.FirstGraphViolation = GR.str();
        }
        if (!checkAbsState(Mon->graph(), Q->objId(), SeqSpec::Queue).ok())
          ++Stats.AbsViolations;

        // Functional sanity: each dequeued value was enqueued, no value
        // dequeued twice.
        std::map<Value, int> Budget;
        for (auto &Vs : Enqs)
          for (Value V : Vs)
            ++Budget[V];
        for (auto &Vs : Got)
          for (Value V : Vs) {
            if (V == EmptyVal) {
              ++Stats.EmptyDeqs;
              continue;
            }
            EXPECT_GT(Budget[V], 0) << "value duplicated or invented";
            --Budget[V];
          }
      });
  EXPECT_GT(Sum.Executions, 0u);
  EXPECT_EQ(Sum.Races, 0u);
  return Stats;
}

} // namespace

//===----------------------------------------------------------------------===//
// Single-producer / single-consumer micro workload (full exhaustive).
//===----------------------------------------------------------------------===//

class QueueMicroTest : public ::testing::TestWithParam<QueueKind> {};

TEST_P(QueueMicroTest, OneEnqOneDeqConsistent) {
  auto Stats = exploreQueue(GetParam(), {{5}}, {1}, /*Preemptions=*/~0u);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstGraphViolation;
  EXPECT_EQ(Stats.AbsViolations, 0u);
  EXPECT_GT(Stats.EmptyDeqs, 0u) << "some interleaving must see empty";
}

TEST_P(QueueMicroTest, TwoEnqsTwoDeqsConsistent) {
  auto Stats =
      exploreQueue(GetParam(), {{1, 2}}, {2}, /*Preemptions=*/3);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstGraphViolation;
}

TEST_P(QueueMicroTest, TwoDequeuerThreadsConsistent) {
  auto Stats = exploreQueue(GetParam(), {{1, 2}}, {1, 1},
                            /*Preemptions=*/2);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstGraphViolation;
}

INSTANTIATE_TEST_SUITE_P(AllQueues, QueueMicroTest,
                         ::testing::Values(QueueKind::Ms, QueueKind::Hw,
                                           QueueKind::Locked),
                         [](const auto &Info) {
                           return queueKindName(Info.param);
                         });

//===----------------------------------------------------------------------===//
// Spec-strength separation (Section 3.2)
//===----------------------------------------------------------------------===//

TEST(QueueSpecStrengthTest, MsQueueSatisfiesAbsState) {
  // Cross-thread enqueues: the scenario where HW fails; MS must not.
  auto Stats = exploreQueue(QueueKind::Ms, {{1}, {2}}, {2},
                            /*Preemptions=*/2);
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstGraphViolation;
  EXPECT_EQ(Stats.AbsViolations, 0u)
      << "MS queue satisfies LAT_abs_hb (Section 3.2)";
}

TEST(QueueSpecStrengthTest, HwQueueViolatesAbsStateButNotGraph) {
  // Two enqueuer threads + a dequeuer: a dequeue may claim slot 1 while a
  // stale-empty slot 0 holds an earlier-committed element — fine for the
  // graph spec (no lhb between the enqueues), fatal for a commit-point
  // abstract state (the paper: HW needs prophecy for LAT_abs_hb).
  auto Stats = exploreQueue(QueueKind::Hw, {{1}, {2}}, {2},
                            /*Preemptions=*/2);
  EXPECT_EQ(Stats.GraphViolations, 0u)
      << "HW queue satisfies LAT_hb: " << Stats.FirstGraphViolation;
  EXPECT_GT(Stats.AbsViolations, 0u)
      << "HW queue must exhibit abstract-state violations (Section 3.2)";
}

TEST(QueueSpecStrengthTest, LockedQueueSatisfiesStrictSpecs) {
  Explorer::Options Opts;
  Opts.PreemptionBound = 2;
  std::unique_ptr<SpecMonitor> Mon;
  std::unique_ptr<lib::SimQueue> Q;
  std::vector<Value> Got;
  uint64_t Checked = 0;
  explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Mon = std::make_unique<SpecMonitor>();
        Q = makeQueue(QueueKind::Locked, M, *Mon);
        Got.clear();
        Env &E0 = S.newThread();
        S.start(E0, test::enqueuerThread(E0, *Q, {1, 2}));
        Env &E1 = S.newThread();
        S.start(E1, test::dequeuerThread(E1, *Q, 2, &Got));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        if (R != Scheduler::RunResult::Done)
          return;
        ++Checked;
        ContainerCheckOptions StrictG;
        StrictG.StrictEmpty = true;
        auto GR =
            checkConsistent(Mon->graph(), Q->objId(), SeqSpec::Queue, StrictG);
        EXPECT_TRUE(GR.ok()) << GR.str();
        AbsStateOptions StrictA;
        StrictA.RequireTrueEmpty = true;
        auto AR =
            checkAbsState(Mon->graph(), Q->objId(), SeqSpec::Queue, StrictA);
        EXPECT_TRUE(AR.ok()) << AR.str();
      });
  EXPECT_GT(Checked, 0u);
}

//===----------------------------------------------------------------------===//
// Synchronization-profile ablations (fences vs. orders vs. broken)
//===----------------------------------------------------------------------===//

namespace {

/// Explores the 1-enq/1-deq workload for a given MS-queue profile,
/// tolerating raced executions (counted, not failed).
struct ProfileStats {
  uint64_t Races = 0;
  uint64_t Checked = 0;
  uint64_t GraphViolations = 0;
  uint64_t AbsViolations = 0;
};

ProfileStats exploreMsProfile(lib::MsQueue::SyncProfile Profile) {
  Explorer::Options Opts;
  std::unique_ptr<SpecMonitor> Mon;
  std::unique_ptr<lib::MsQueue> Q;
  std::vector<Value> Got;
  ProfileStats Stats;

  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Mon = std::make_unique<SpecMonitor>();
        Q = std::make_unique<lib::MsQueue>(M, *Mon, "q", Profile);
        Got.clear();
        Env &E0 = S.newThread();
        S.start(E0, test::enqueuerThread(E0, *Q, {5}));
        Env &E1 = S.newThread();
        S.start(E1, test::dequeuerThread(E1, *Q, 1, &Got));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        if (R != Scheduler::RunResult::Done)
          return;
        ++Stats.Checked;
        if (!checkConsistent(Mon->graph(), Q->objId(), SeqSpec::Queue).ok())
          ++Stats.GraphViolations;
        if (!checkAbsState(Mon->graph(), Q->objId(), SeqSpec::Queue).ok())
          ++Stats.AbsViolations;
      });
  Stats.Races = Sum.Races;
  return Stats;
}

} // namespace

TEST(QueueProfileTest, FencedProfileEquivalentToRelAcq) {
  // All-relaxed accesses + release/acquire fences at the same points:
  // the fence rules provide the same synchronization, so everything that
  // holds for the rel/acq build holds here.
  auto Stats = exploreMsProfile(lib::MsQueue::SyncProfile::Fenced);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.Races, 0u);
  EXPECT_EQ(Stats.GraphViolations, 0u);
  EXPECT_EQ(Stats.AbsViolations, 0u);
}

TEST(QueueProfileTest, BrokenRelaxedProfileIsCaught) {
  // No release/acquire anywhere: the dequeuer's non-atomic read of the
  // node payload races with the enqueuer's initialization. The framework
  // must find it.
  auto Stats = exploreMsProfile(lib::MsQueue::SyncProfile::BrokenRelaxed);
  EXPECT_GT(Stats.Races, 0u)
      << "the model checker must detect the publication race";
}
