//===-- tests/WsDequeTest.cpp - Chase-Lev deque vs. its spec ---------------===//
//
// The paper's Section 6 future-work library, realized and verified: every
// explored execution of the Chase-Lev deque (Lê et al. C11 orderings) is
// checked against the SeqSpec::WsDeque table entry (its graph axioms and
// its double-ended abstract-state replay) and the SeqSpec::WsDeque
// linearization search. Also stress-tests the native std::atomic twin.
//
//===----------------------------------------------------------------------===//

#include "lib/WsDeque.h"
#include "native/WsDeque.h"
#include "sim/Workload.h"
#include "spec/Consistency.h"
#include "spec/Linearization.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <thread>

using namespace compass;
using namespace compass::rmc;
using namespace compass::sim;
using namespace compass::spec;
using compass::graph::EmptyVal;
using compass::graph::FailRaceVal;

namespace {

/// Owner: pushes Vs, then performs Takes takes.
Task<void> ownerThread(Env &E, lib::WsDeque &D, std::vector<Value> Vs,
                       unsigned Takes, std::vector<Value> *Out) {
  for (Value V : Vs) {
    auto T = D.push(E, V);
    co_await T;
  }
  for (unsigned I = 0; I != Takes; ++I) {
    auto T = D.take(E);
    Out->push_back(co_await T);
  }
}

/// Owner variant interleaving pushes and takes: push, push, take, push,
/// take, take — exercises bottom going up and down.
Task<void> ownerMixedThread(Env &E, lib::WsDeque &D,
                            std::vector<Value> *Out) {
  auto P1 = D.push(E, 1);
  co_await P1;
  auto P2 = D.push(E, 2);
  co_await P2;
  auto T1 = D.take(E);
  Out->push_back(co_await T1);
  auto P3 = D.push(E, 3);
  co_await P3;
  auto T2 = D.take(E);
  Out->push_back(co_await T2);
  auto T3 = D.take(E);
  Out->push_back(co_await T3);
}

/// Thief: attempts up to N steals (lost races retried as a new attempt).
Task<void> thiefThread(Env &E, lib::WsDeque &D, unsigned N,
                       std::vector<Value> *Out) {
  for (unsigned I = 0; I != N; ++I) {
    auto T = D.steal(E);
    Value V = co_await T;
    if (V != FailRaceVal)
      Out->push_back(V);
  }
}

struct DequeStats {
  uint64_t Checked = 0;
  uint64_t GraphViolations = 0;
  uint64_t AbsViolations = 0;
  uint64_t NoWitness = 0;
  uint64_t Steals = 0;
  std::string FirstViolation;
};

template <typename OwnerFactoryT>
DequeStats exploreDeque(OwnerFactoryT MakeOwner, unsigned Thieves,
                        unsigned StealsPerThief, unsigned Preemptions) {
  Explorer::Options Opts;
  Opts.PreemptionBound = Preemptions;
  Opts.MaxExecutions = 400'000;

  DequeStats Stats;
  std::unique_ptr<SpecMonitor> Mon;
  std::unique_ptr<lib::WsDeque> D;
  std::vector<Value> OwnerGot;
  std::vector<std::vector<Value>> ThiefGot;

  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Mon = std::make_unique<SpecMonitor>();
        D = std::make_unique<lib::WsDeque>(M, *Mon, "d", 16);
        OwnerGot.clear();
        ThiefGot.assign(Thieves, {});
        Env &E0 = S.newThread();
        S.start(E0, MakeOwner(E0, *D, &OwnerGot));
        for (unsigned I = 0; I != Thieves; ++I) {
          Env &E = S.newThread();
          S.start(E, thiefThread(E, *D, StealsPerThief, &ThiefGot[I]));
        }
      },
      [&](Machine &M, Scheduler &, Scheduler::RunResult R) {
        EXPECT_NE(R, Scheduler::RunResult::Race) << M.raceMessage();
        if (R != Scheduler::RunResult::Done)
          return;
        ++Stats.Checked;
        auto GR = checkConsistent(Mon->graph(), D->objId(), SeqSpec::WsDeque);
        if (!GR.ok()) {
          ++Stats.GraphViolations;
          if (Stats.FirstViolation.empty())
            Stats.FirstViolation = GR.str() + Mon->graph().str();
        }
        auto AR = checkAbsState(Mon->graph(), D->objId(), SeqSpec::WsDeque);
        if (!AR.ok()) {
          ++Stats.AbsViolations;
          if (Stats.FirstViolation.empty())
            Stats.FirstViolation = AR.str() + Mon->graph().str();
        }
        auto LR = findLinearization(Mon->graph(), D->objId(),
                                    SeqSpec::WsDeque);
        if (!LR.Found) {
          ++Stats.NoWitness;
          if (Stats.FirstViolation.empty())
            Stats.FirstViolation =
                "no linearization:\n" + Mon->graph().str();
        }
        for (auto &Vs : ThiefGot)
          for (Value V : Vs)
            if (V != EmptyVal)
              ++Stats.Steals;
      });
  EXPECT_GT(Sum.Executions, 0u);
  EXPECT_EQ(Sum.Races, 0u);
  return Stats;
}

} // namespace

TEST(WsDequeSimTest, OwnerOnlyLifo) {
  auto Stats = exploreDeque(
      [](Env &E, lib::WsDeque &D, std::vector<Value> *Out) {
        return ownerThread(E, D, {1, 2, 3}, 3, Out);
      },
      /*Thieves=*/0, 0, ~0u);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.AbsViolations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.NoWitness, 0u) << Stats.FirstViolation;
}

TEST(WsDequeSimTest, OwnerAndOneThief) {
  auto Stats = exploreDeque(
      [](Env &E, lib::WsDeque &D, std::vector<Value> *Out) {
        return ownerThread(E, D, {1, 2}, 2, Out);
      },
      /*Thieves=*/1, 2, 2);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.AbsViolations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.NoWitness, 0u) << Stats.FirstViolation;
  EXPECT_GT(Stats.Steals, 0u) << "stealing must be reachable";
}

TEST(WsDequeSimTest, LastElementRaceConsistent) {
  // One element, owner takes while a thief steals: exactly one wins.
  auto Stats = exploreDeque(
      [](Env &E, lib::WsDeque &D, std::vector<Value> *Out) {
        return ownerThread(E, D, {7}, 1, Out);
      },
      /*Thieves=*/1, 1, ~0u);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.AbsViolations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.NoWitness, 0u) << Stats.FirstViolation;
}

TEST(WsDequeSimTest, MixedOwnerWithThief) {
  auto Stats = exploreDeque(
      [](Env &E, lib::WsDeque &D, std::vector<Value> *Out) {
        return ownerMixedThread(E, D, Out);
      },
      /*Thieves=*/1, 1, 2);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.AbsViolations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.NoWitness, 0u) << Stats.FirstViolation;
}

TEST(WsDequeSimTest, TwoThievesConsistent) {
  auto Stats = exploreDeque(
      [](Env &E, lib::WsDeque &D, std::vector<Value> *Out) {
        return ownerThread(E, D, {1, 2}, 0, Out);
      },
      /*Thieves=*/2, 1, 2);
  EXPECT_GT(Stats.Checked, 0u);
  EXPECT_EQ(Stats.GraphViolations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.AbsViolations, 0u) << Stats.FirstViolation;
  EXPECT_EQ(Stats.NoWitness, 0u) << Stats.FirstViolation;
  EXPECT_GT(Stats.Steals, 0u);
}

//===----------------------------------------------------------------------===//
// Native twin
//===----------------------------------------------------------------------===//

TEST(WsDequeNativeTest, OwnerLifoSingleThread) {
  native::WsDeque<uint64_t> D(8);
  EXPECT_FALSE(D.take().has_value());
  for (uint64_t I = 1; I <= 3; ++I)
    EXPECT_TRUE(D.push(I));
  for (uint64_t I = 3; I >= 1; --I) {
    auto V = D.take();
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, I);
  }
  EXPECT_FALSE(D.take().has_value());
}

TEST(WsDequeNativeTest, StealsComeFromTheTop) {
  native::WsDeque<uint64_t> D(8);
  for (uint64_t I = 1; I <= 3; ++I)
    D.push(I);
  uint64_t Out = 0;
  ASSERT_EQ(D.steal(Out), native::WsDeque<uint64_t>::StealResult::Ok);
  EXPECT_EQ(Out, 1u); // Oldest first.
  ASSERT_EQ(D.steal(Out), native::WsDeque<uint64_t>::StealResult::Ok);
  EXPECT_EQ(Out, 2u);
  auto V = D.take();
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, 3u);
  EXPECT_EQ(D.steal(Out), native::WsDeque<uint64_t>::StealResult::Empty);
}

TEST(WsDequeNativeTest, FullRingRejectsPush) {
  native::WsDeque<uint64_t> D(2);
  EXPECT_TRUE(D.push(1));
  EXPECT_TRUE(D.push(2));
  EXPECT_FALSE(D.push(3));
  D.take();
  EXPECT_TRUE(D.push(3));
}

TEST(WsDequeNativeTest, OwnerThiefConservationStress) {
  native::WsDeque<uint64_t> D(1024);
  constexpr uint64_t N = 20'000;
  std::map<uint64_t, int> Seen;
  std::atomic<bool> OwnerDone{false};
  std::atomic<uint64_t> Consumed{0};
  std::vector<uint64_t> OwnerGot, ThiefGot;

  std::thread Owner([&] {
    uint64_t Next = 1;
    while (Next <= N) {
      if (D.push(Next)) {
        ++Next;
        continue;
      }
      if (auto V = D.take()) // Ring full: drain one.
        OwnerGot.push_back(*V);
    }
    while (auto V = D.take())
      OwnerGot.push_back(*V);
    OwnerDone.store(true, std::memory_order_release);
  });
  std::thread Thief([&] {
    uint64_t Out = 0;
    for (;;) {
      auto R = D.steal(Out);
      if (R == native::WsDeque<uint64_t>::StealResult::Ok) {
        ThiefGot.push_back(Out);
        continue;
      }
      if (OwnerDone.load(std::memory_order_acquire) &&
          R == native::WsDeque<uint64_t>::StealResult::Empty)
        break;
      std::this_thread::yield();
    }
  });
  Owner.join();
  Thief.join();
  // A final drain in case the thief exited while the owner requeued.
  while (auto V = D.take())
    OwnerGot.push_back(*V);

  for (uint64_t V : OwnerGot)
    ++Seen[V];
  for (uint64_t V : ThiefGot)
    ++Seen[V];
  EXPECT_EQ(Seen.size(), N) << "values lost";
  for (auto &[V, C] : Seen)
    EXPECT_EQ(C, 1) << "value " << V << " duplicated";
  ++Consumed; // Silence unused in release.
}
