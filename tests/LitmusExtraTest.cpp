//===-- tests/LitmusExtraTest.cpp - Deeper litmus coverage ------------------===//
//
// Additional classic litmus tests pinning down the machine's RC11
// semantics beyond SimTest.cpp's basics: WRC (write-to-read causality
// through release/acquire chains), IRIW with and without SC fences,
// release sequences through relaxed RMWs, coherence shapes (CoWR, CoRW),
// and the two-queue pipeline client (the Section 2.2 protocol pattern).
//
//===----------------------------------------------------------------------===//

#include "clients/Pipeline.h"
#include "sim/Workload.h"

#include <gtest/gtest.h>

#include <set>

using namespace compass;
using namespace compass::rmc;
using namespace compass::sim;

namespace {

Task<void> storeOne(Env &E, Loc L, MemOrder O) {
  co_await E.store(L, 1, O);
}

// WRC: T0: x :=rel 1. T1: r1 = x.acq; y :=rel 1. T2: r2 = y.acq;
// r3 = x.rlx. Forbidden: r1=1, r2=1, r3=0 (causality through two
// release/acquire hops).
struct WrcOut {
  Value R1 = 0, R2 = 0, R3 = 0;
};

Task<void> wrcMiddle(Env &E, Loc X, Loc Y, Value *R1) {
  *R1 = co_await E.load(X, MemOrder::Acquire);
  co_await E.store(Y, 1, MemOrder::Release);
}

Task<void> wrcReader(Env &E, Loc X, Loc Y, Value *R2, Value *R3) {
  *R2 = co_await E.load(Y, MemOrder::Acquire);
  *R3 = co_await E.load(X, MemOrder::Relaxed);
}

// IRIW: two writers to x and y; two readers disagree about the order.
// r1=1,r2=0,r3=1,r4=0 is allowed without SC fences (no multi-copy
// atomicity required by rel/acq) and forbidden with SC fences between
// the reads.
struct IriwOut {
  Value R1 = 0, R2 = 0, R3 = 0, R4 = 0;
};

Task<void> iriwReader(Env &E, Loc A, Loc B, bool Fence, Value *Ra,
                      Value *Rb) {
  *Ra = co_await E.load(A, MemOrder::Acquire);
  if (Fence)
    co_await E.fence(MemOrder::SeqCst);
  *Rb = co_await E.load(B, MemOrder::Acquire);
}

} // namespace

TEST(LitmusExtraTest, WrcCausalityHolds) {
  WrcOut O;
  uint64_t Bad = 0;
  explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        O = WrcOut();
        Loc X = M.alloc("x"), Y = M.alloc("y");
        Env &E0 = S.newThread();
        S.start(E0, storeOne(E0, X, MemOrder::Release));
        Env &E1 = S.newThread();
        S.start(E1, wrcMiddle(E1, X, Y, &O.R1));
        Env &E2 = S.newThread();
        S.start(E2, wrcReader(E2, X, Y, &O.R2, &O.R3));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Done);
        if (O.R1 == 1 && O.R2 == 1 && O.R3 == 0)
          ++Bad;
      });
  EXPECT_EQ(Bad, 0u) << "WRC causality violated";
}

TEST(LitmusExtraTest, IriwWeakWithoutScFences) {
  std::set<std::tuple<Value, Value, Value, Value>> Outcomes;
  IriwOut O;
  explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        O = IriwOut();
        Loc X = M.alloc("x"), Y = M.alloc("y");
        Env &E0 = S.newThread();
        S.start(E0, storeOne(E0, X, MemOrder::Release));
        Env &E1 = S.newThread();
        S.start(E1, storeOne(E1, Y, MemOrder::Release));
        Env &E2 = S.newThread();
        S.start(E2, iriwReader(E2, X, Y, false, &O.R1, &O.R2));
        Env &E3 = S.newThread();
        S.start(E3, iriwReader(E3, Y, X, false, &O.R3, &O.R4));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Done);
        Outcomes.insert({O.R1, O.R2, O.R3, O.R4});
      });
  // The readers may disagree on the writes' order: rel/acq is not
  // multi-copy atomic.
  EXPECT_TRUE(Outcomes.count({1, 0, 1, 0}))
      << "IRIW weak outcome must be observable without SC fences";
}

TEST(LitmusExtraTest, IriwForbiddenWithScFences) {
  IriwOut O;
  uint64_t Bad = 0;
  explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        O = IriwOut();
        Loc X = M.alloc("x"), Y = M.alloc("y");
        Env &E0 = S.newThread();
        S.start(E0, storeOne(E0, X, MemOrder::Release));
        Env &E1 = S.newThread();
        S.start(E1, storeOne(E1, Y, MemOrder::Release));
        Env &E2 = S.newThread();
        S.start(E2, iriwReader(E2, X, Y, true, &O.R1, &O.R2));
        Env &E3 = S.newThread();
        S.start(E3, iriwReader(E3, Y, X, true, &O.R3, &O.R4));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Done);
        if (O.R1 == 1 && O.R2 == 0 && O.R3 == 1 && O.R4 == 0)
          ++Bad;
      });
  EXPECT_EQ(Bad, 0u) << "SC fences must restore agreement on write order";
}

namespace {

// Release sequence: T0: x :=na 7; c :=rel 1. T1 (after c >= 1):
// faa(c, rlx), making c = 2. T2 waits for c >= 2 with an acquire read —
// it then observes T1's *relaxed* RMW message, yet must still have
// synchronized with T0's release (release sequences survive RMWs), so
// the na read of x is race-free and yields 7.
Task<void> rsOwner(Env &E, Loc X, Loc C) {
  co_await E.store(X, 7, MemOrder::NonAtomic);
  co_await E.store(C, 1, MemOrder::Release);
}

Task<void> rsBumper(Env &E, Loc C) {
  co_await E.spinUntil(
      C, [](Value W) { return W >= 1; }, MemOrder::Relaxed);
  co_await E.fetchAdd(C, 1, MemOrder::Relaxed);
}

Task<void> rsReader(Env &E, Loc X, Loc C, Value *Got) {
  Value V = co_await E.spinUntil(
      C, [](Value W) { return W >= 2; }, MemOrder::Acquire);
  (void)V;
  *Got = co_await E.load(X, MemOrder::NonAtomic);
}

} // namespace

TEST(LitmusExtraTest, ReleaseSequenceSurvivesRelaxedRmw) {
  Value Got = 0;
  auto Sum = explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        Got = 0;
        Loc X = M.alloc("x"), C = M.alloc("c");
        Env &E0 = S.newThread();
        S.start(E0, rsOwner(E0, X, C));
        Env &E1 = S.newThread();
        S.start(E1, rsBumper(E1, C));
        Env &E2 = S.newThread();
        S.start(E2, rsReader(E2, X, C, &Got));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Done);
        EXPECT_EQ(Got, 7u);
      });
  EXPECT_EQ(Sum.Races, 0u)
      << "release sequence must make the na read race-free";
}

namespace {

Task<void> coWrThread(Env &E, Loc X, Value *R) {
  co_await E.store(X, 1, MemOrder::Relaxed);
  *R = co_await E.load(X, MemOrder::Relaxed);
}

} // namespace

TEST(LitmusExtraTest, CoWRReadsOwnWriteOrNewer) {
  // A thread never reads older than its own last write to a location.
  Value R0 = 0, R1 = 0;
  explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        R0 = R1 = 0;
        Loc X = M.alloc("x");
        Env &E0 = S.newThread();
        S.start(E0, coWrThread(E0, X, &R0));
        Env &E1 = S.newThread();
        S.start(E1, coWrThread(E1, X, &R1));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Done);
        EXPECT_EQ(R0, 1u);
        EXPECT_EQ(R1, 1u);
      });
}

//===----------------------------------------------------------------------===//
// The two-queue pipeline client (Section 2.2's protocol pattern)
//===----------------------------------------------------------------------===//

TEST(PipelineClientTest, ParityAndOrderPreservedAcrossQueues) {
  Explorer::Options Opts;
  Opts.PreemptionBound = 2;
  Opts.MaxExecutions = 300'000;

  std::vector<Value> Odds = {1, 3, 5};
  std::unique_ptr<spec::SpecMonitor> Mon;
  std::unique_ptr<lib::MsQueue> Q1, Q2;
  clients::PipelineOutcome Out;
  uint64_t Checked = 0;

  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Mon = std::make_unique<spec::SpecMonitor>();
        Q1 = std::make_unique<lib::MsQueue>(M, *Mon, "q1");
        Q2 = std::make_unique<lib::MsQueue>(M, *Mon, "q2");
        Out = clients::PipelineOutcome();
        clients::setupPipeline(M, S, *Q1, *Q2, Odds, Out);
      },
      [&](Machine &M, Scheduler &, Scheduler::RunResult R) {
        EXPECT_NE(R, Scheduler::RunResult::Race) << M.raceMessage();
        EXPECT_NE(R, Scheduler::RunResult::Deadlock);
        if (R != Scheduler::RunResult::Done)
          return;
        ++Checked;
        // The protocol invariant: the second queue carries exactly the
        // incremented (even) values, in the producer's order.
        std::vector<Value> Expected = {2, 4, 6};
        EXPECT_EQ(Out.Relayed, Expected);
        EXPECT_EQ(Out.Consumed, Expected);
        for (Value V : Out.Consumed)
          EXPECT_EQ(V % 2, 0u) << "second queue must hold evens only";
      });
  EXPECT_GT(Checked, 0u);
  EXPECT_EQ(Sum.Races, 0u);
}
