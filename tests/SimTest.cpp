//===-- tests/SimTest.cpp - Scheduler/Explorer tests and litmus tests ------===//
//
// Validates the simulation kernel: coroutine threads, cooperative
// scheduling, exhaustive exploration, preemption bounding, pruning — and
// the memory model end-to-end through classic litmus tests (MP, SB, CoRR)
// whose allowed/forbidden outcome sets are known for RC11 without load
// buffering.
//
//===----------------------------------------------------------------------===//

#include "sim/Explorer.h"
#include "sim/Scheduler.h"
#include "sim/Task.h"
#include "sim/Workload.h"

#include "SimTestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <vector>

using namespace compass;
using namespace compass::rmc;
using namespace compass::sim;

namespace {

Task<void> storeTwice(Env &E, Loc A, Loc B) {
  co_await E.store(A, 1, MemOrder::Relaxed);
  co_await E.store(B, 1, MemOrder::Relaxed);
}

Task<Value> addSub(Env &E, Loc X) {
  Value V = co_await E.load(X, MemOrder::Relaxed);
  co_return V + 1;
}

Task<void> nestedBody(Env &E, Loc X, Value *Out) {
  // Exercises nested task awaiting (continuation chaining).
  auto TA = addSub(E, X);
  Value A = co_await TA;
  auto TB = addSub(E, X);
  Value B = co_await TB;
  *Out = A + B;
}

} // namespace

TEST(SchedulerTest, SingleThreadRunsToCompletion) {
  Explorer Ex;
  ASSERT_TRUE(Ex.beginExecution());
  Machine M(Ex);
  Scheduler S(M, Ex);
  Loc X = M.alloc("x", 1, 20);
  Value Out = 0;
  Env &E0 = S.newThread();
  S.start(E0, nestedBody(E0, X, &Out));
  EXPECT_EQ(S.run(), Scheduler::RunResult::Done);
  EXPECT_EQ(Out, 42u);
  EXPECT_TRUE(S.finished(0));
  Ex.endExecution(Scheduler::RunResult::Done);
}

TEST(ExplorerTest, CountsIndependentInterleavings) {
  // Two threads, two stores each to disjoint locations, no read choices.
  // Each thread takes 3 scheduler steps (launch-to-first-op plus one per
  // store), so the interleavings are C(6,3) = 20.
  auto Sum = explore(
      Explorer::Options{},
      [](Machine &M, Scheduler &S) {
        Loc A = M.alloc("a", 2), B = M.alloc("b", 2);
        Env &E0 = S.newThread();
        S.start(E0, storeTwice(E0, A, A + 1));
        Env &E1 = S.newThread();
        S.start(E1, storeTwice(E1, B, B + 1));
      },
      [](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Done);
      });
  EXPECT_EQ(Sum.Executions, 20u);
  EXPECT_TRUE(Sum.Exhausted);
  EXPECT_EQ(Sum.Completed, 20u);
}

TEST(ExplorerTest, DeterministicAcrossRepeats) {
  auto Run = [] {
    return explore(
        Explorer::Options{},
        [](Machine &M, Scheduler &S) {
          Loc A = M.alloc("a"), B = M.alloc("b");
          Env &E0 = S.newThread();
          S.start(E0, storeTwice(E0, A, B));
          Env &E1 = S.newThread();
          S.start(E1, storeTwice(E1, B, A));
        },
        [](Machine &, Scheduler &, Scheduler::RunResult) {});
  };
  auto S1 = Run(), S2 = Run();
  EXPECT_EQ(S1.Executions, S2.Executions);
  EXPECT_EQ(S1.MaxDepth, S2.MaxDepth);
  EXPECT_TRUE(S1.Exhausted);
}

//===----------------------------------------------------------------------===//
// Litmus: Message Passing
//===----------------------------------------------------------------------===//

namespace {

struct MpLitmusOut {
  Value Flag = 0, Data = 0;
};

Task<void> mpWriter(Env &E, Loc X, Loc F, MemOrder StoreO) {
  co_await E.store(X, 1, MemOrder::Relaxed);
  co_await E.store(F, 1, StoreO);
}

Task<void> mpReader(Env &E, Loc X, Loc F, MemOrder LoadO, MpLitmusOut &O) {
  O.Flag = co_await E.load(F, LoadO);
  O.Data = co_await E.load(X, MemOrder::Relaxed);
}

std::set<std::pair<Value, Value>> mpOutcomes(MemOrder StoreO,
                                             MemOrder LoadO) {
  std::set<std::pair<Value, Value>> Outcomes;
  MpLitmusOut O;
  explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        O = MpLitmusOut();
        Loc X = M.alloc("x"), F = M.alloc("f");
        Env &E0 = S.newThread();
        S.start(E0, mpWriter(E0, X, F, StoreO));
        Env &E1 = S.newThread();
        S.start(E1, mpReader(E1, X, F, LoadO, O));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Done);
        Outcomes.insert({O.Flag, O.Data});
      });
  return Outcomes;
}

} // namespace

TEST(LitmusTest, MpReleaseAcquireForbidsStaleData) {
  auto Outcomes = mpOutcomes(MemOrder::Release, MemOrder::Acquire);
  EXPECT_FALSE(Outcomes.count({1, 0})) << "rel/acq MP must not lose data";
  EXPECT_TRUE(Outcomes.count({1, 1}));
  EXPECT_TRUE(Outcomes.count({0, 0}));
}

TEST(LitmusTest, MpRelaxedAllowsStaleData) {
  auto Outcomes = mpOutcomes(MemOrder::Relaxed, MemOrder::Relaxed);
  EXPECT_TRUE(Outcomes.count({1, 0}))
      << "relaxed MP must exhibit the weak behaviour";
  EXPECT_TRUE(Outcomes.count({1, 1}));
}

TEST(LitmusTest, MpRelaxedFlagAcquireReadStillWeak) {
  // Release on the store side alone is not enough.
  auto Outcomes = mpOutcomes(MemOrder::Relaxed, MemOrder::Acquire);
  EXPECT_TRUE(Outcomes.count({1, 0}));
}

//===----------------------------------------------------------------------===//
// Litmus: Store Buffering
//===----------------------------------------------------------------------===//

namespace {

struct SbOut {
  Value R0 = ~0ull, R1 = ~0ull;
};

Task<void> sbThread(Env &E, Loc Mine, Loc Theirs, bool WithFence,
                    Value *R) {
  co_await E.store(Mine, 1, MemOrder::Relaxed);
  if (WithFence)
    co_await E.fence(MemOrder::SeqCst);
  *R = co_await E.load(Theirs, MemOrder::Relaxed);
}

std::set<std::pair<Value, Value>> sbOutcomes(bool WithFences) {
  std::set<std::pair<Value, Value>> Outcomes;
  SbOut O;
  explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        O = SbOut();
        Loc X = M.alloc("x"), Y = M.alloc("y");
        Env &E0 = S.newThread();
        S.start(E0, sbThread(E0, X, Y, WithFences, &O.R0));
        Env &E1 = S.newThread();
        S.start(E1, sbThread(E1, Y, X, WithFences, &O.R1));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Done);
        Outcomes.insert({O.R0, O.R1});
      });
  return Outcomes;
}

} // namespace

TEST(LitmusTest, SbRelaxedAllowsBothZero) {
  auto Outcomes = sbOutcomes(false);
  EXPECT_TRUE(Outcomes.count({0, 0}));
  EXPECT_TRUE(Outcomes.count({1, 1}));
}

TEST(LitmusTest, SbScFencesForbidBothZero) {
  auto Outcomes = sbOutcomes(true);
  EXPECT_FALSE(Outcomes.count({0, 0}))
      << "SC fences must forbid the store-buffering outcome";
  EXPECT_TRUE(Outcomes.count({1, 1}) || Outcomes.count({0, 1}) ||
              Outcomes.count({1, 0}));
}

//===----------------------------------------------------------------------===//
// Litmus: coherence (CoRR)
//===----------------------------------------------------------------------===//

namespace {

Task<void> corrWriter(Env &E, Loc X) {
  co_await E.store(X, 1, MemOrder::Relaxed);
  co_await E.store(X, 2, MemOrder::Relaxed);
}

Task<void> corrReader(Env &E, Loc X, Value *R1, Value *R2) {
  *R1 = co_await E.load(X, MemOrder::Relaxed);
  *R2 = co_await E.load(X, MemOrder::Relaxed);
}

} // namespace

TEST(LitmusTest, CoRRNeverReadsBackwards) {
  Value R1 = 0, R2 = 0;
  explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        R1 = R2 = 0;
        Loc X = M.alloc("x");
        Env &E0 = S.newThread();
        S.start(E0, corrWriter(E0, X));
        Env &E1 = S.newThread();
        S.start(E1, corrReader(E1, X, &R1, &R2));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult) {
        EXPECT_LE(R1, R2) << "coherence violated: read went backwards";
      });
}

//===----------------------------------------------------------------------===//
// spinUntil, prune, deadlock, step limit, preemption bounds
//===----------------------------------------------------------------------===//

namespace {

Task<void> waiter(Env &E, Loc F, Value *Got) {
  *Got = co_await E.spinUntil(
      F, [](Value V) { return V != 0; }, MemOrder::Acquire);
}

Task<void> signaler(Env &E, Loc F) {
  co_await E.store(F, 7, MemOrder::Release);
}

Task<void> eternalSpinner(Env &E, Loc F) {
  co_await E.spinUntil(
      F, [](Value V) { return V != 0; }, MemOrder::Acquire);
}

Task<void> infiniteStores(Env &E, Loc X) {
  for (;;)
    co_await E.store(X, 1, MemOrder::Relaxed);
}

Task<void> selfPruner(Env &E, Loc X) {
  Timestamp Prev = ~0u;
  for (;;) {
    co_await E.load(X, MemOrder::Relaxed);
    Timestamp Ts = E.M.lastReadTs(E.Tid);
    if (Ts == Prev)
      co_await E.prune();
    Prev = Ts;
  }
}

} // namespace

TEST(SchedulerTest, SpinUntilWakesOnSignal) {
  Value Got = 0;
  auto Sum = explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        Got = 0;
        Loc F = M.alloc("f");
        Env &E0 = S.newThread();
        S.start(E0, waiter(E0, F, &Got));
        Env &E1 = S.newThread();
        S.start(E1, signaler(E1, F));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Done);
        EXPECT_EQ(Got, 7u);
      });
  EXPECT_TRUE(Sum.Exhausted);
  EXPECT_GT(Sum.Executions, 0u);
}

TEST(SchedulerTest, UnsatisfiableSpinIsDeadlock) {
  auto Sum = explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        Loc F = M.alloc("f");
        Env &E0 = S.newThread();
        S.start(E0, eternalSpinner(E0, F));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Deadlock);
      });
  EXPECT_EQ(Sum.Deadlocks, Sum.Executions);
}

namespace {

Task<void> scSpinForOne(Env &E, Loc F) {
  co_await E.spinUntil(
      F, [](Value V) { return V == 1; }, MemOrder::SeqCst);
}

Task<void> storeOneThenTwo(Env &E, Loc F, MemOrder Second, bool ScFence) {
  co_await E.store(F, 1, MemOrder::Relaxed);
  co_await E.store(F, 2, Second);
  if (ScFence)
    co_await E.fence(MemOrder::SeqCst);
}

/// Explores a seq_cst spin for f == 1 against a thread that stores f = 1
/// then f = 2 (with \p Second), then optionally runs an SC fence. Once the
/// SC view names the 2, the spinner can no longer read the 1: the wait
/// scan must then report it blocked, not enabled on an unreadable message.
Explorer::Summary exploreScSpin(MemOrder Second, bool ScFence) {
  return explore(
      Explorer::Options{},
      [=](Machine &M, Scheduler &S) {
        Loc F = M.alloc("f");
        Env &E0 = S.newThread();
        S.start(E0, scSpinForOne(E0, F));
        Env &E1 = S.newThread();
        S.start(E1, storeOneThenTwo(E1, F, Second, ScFence));
      },
      [](Machine &, Scheduler &, Scheduler::RunResult) {});
}

} // namespace

TEST(SchedulerTest, SeqCstSpinIsBlockedBelowTheScView) {
  // Raised by the seq_cst store of f = 2 itself.
  Explorer::Summary Sum = exploreScSpin(MemOrder::SeqCst, false);
  EXPECT_TRUE(Sum.Exhausted);
  EXPECT_EQ(Sum.Executions, 7u);
  EXPECT_EQ(Sum.Completed, 3u);
  EXPECT_EQ(Sum.Deadlocks, 4u);
}

TEST(SchedulerTest, SeqCstSpinSeesAnScFenceRaiseTheFloor) {
  // Raised by an SC fence, which appends nothing to f: a wait memo keyed
  // on f's history length alone keeps the stale "enabled" verdict.
  Explorer::Summary Sum = exploreScSpin(MemOrder::Relaxed, true);
  EXPECT_TRUE(Sum.Exhausted);
  EXPECT_EQ(Sum.Executions, 12u);
  EXPECT_EQ(Sum.Completed, 7u);
  EXPECT_EQ(Sum.Deadlocks, 5u);
}

TEST(SchedulerTest, DivergentThreadHitsStepLimit) {
  Explorer::Options Opts;
  Opts.MaxStepsPerExec = 100;
  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Loc X = M.alloc("x");
        Env &E0 = S.newThread();
        S.start(E0, infiniteStores(E0, X));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::StepLimit);
      });
  EXPECT_EQ(Sum.Diverged, Sum.Executions);
  EXPECT_EQ(Sum.Executions, 1u);
}

TEST(SchedulerTest, PruneCutsStutterBranches) {
  auto Sum = explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        Loc X = M.alloc("x");
        Env &E0 = S.newThread();
        S.start(E0, selfPruner(E0, X));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Pruned);
      });
  EXPECT_EQ(Sum.Pruned, Sum.Executions);
  EXPECT_EQ(Sum.Executions, 1u);
  EXPECT_TRUE(Sum.Exhausted);
}

TEST(SchedulerTest, PreemptionBoundZeroRunsThreadsAtomically) {
  Explorer::Options Opts;
  Opts.PreemptionBound = 0;
  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Loc A = M.alloc("a", 2), B = M.alloc("b", 2);
        Env &E0 = S.newThread();
        S.start(E0, storeTwice(E0, A, A + 1));
        Env &E1 = S.newThread();
        S.start(E1, storeTwice(E1, B, B + 1));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        EXPECT_EQ(R, Scheduler::RunResult::Done);
      });
  // Only the initial thread choice branches: T0-first or T1-first.
  EXPECT_EQ(Sum.Executions, 2u);
  EXPECT_TRUE(Sum.Exhausted);
}

TEST(SchedulerTest, PreemptionBoundOrdersSubsetOfUnbounded) {
  auto Count = [](unsigned Bound) {
    Explorer::Options Opts;
    Opts.PreemptionBound = Bound;
    return explore(
               Opts,
               [&](Machine &M, Scheduler &S) {
                 Loc A = M.alloc("a", 2), B = M.alloc("b", 2);
                 Env &E0 = S.newThread();
                 S.start(E0, storeTwice(E0, A, A + 1));
                 Env &E1 = S.newThread();
                 S.start(E1, storeTwice(E1, B, B + 1));
               },
               [](Machine &, Scheduler &, Scheduler::RunResult) {})
        .Executions;
  };
  uint64_t C0 = Count(0), C1 = Count(1), CInf = Count(~0u);
  EXPECT_LT(C0, C1);
  EXPECT_LE(C1, CInf);
  EXPECT_EQ(CInf, 20u);
}

TEST(ExplorerTest, FormatTraceNamesTagsAndArities) {
  Explorer Ex;
  ASSERT_TRUE(Ex.beginExecution());
  Machine M(Ex);
  Scheduler S(M, Ex);
  Loc A = M.alloc("a", 2), B = M.alloc("b", 2);
  Env &E0 = S.newThread();
  S.start(E0, storeTwice(E0, A, A + 1));
  Env &E1 = S.newThread();
  S.start(E1, storeTwice(E1, B, B + 1));
  auto R = S.run();
  EXPECT_EQ(R, Scheduler::RunResult::Done);
  std::string Pretty = Ex.formatTrace();
  EXPECT_NE(Pretty.find("#0 sched (2 alts) -> 0"), std::string::npos)
      << Pretty;
  EXPECT_EQ(static_cast<size_t>(
                std::count(Pretty.begin(), Pretty.end(), '\n')),
            Ex.currentDecisions().size());
  Ex.endExecution(R);
}

TEST(ExplorerTest, SummaryStringMentionsCounts) {
  Explorer::Summary Sum;
  Sum.Executions = 3;
  Sum.Exhausted = true;
  std::string Str = Sum.str();
  EXPECT_NE(Str.find("executions=3"), std::string::npos);
  EXPECT_NE(Str.find("exhaustive"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Coroutine frame arena (sim/Task.h). CI runs this suite under TSan and
// under ASan, where the bytes past the arena's used end are poisoned.
//===----------------------------------------------------------------------===//

namespace {

/// Suspends its awaiter and keeps the handle, to be resumed later.
struct Gate {
  std::vector<std::coroutine_handle<>> Waiting;
  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> H) { Waiting.push_back(H); }
  void await_resume() const {}
  void openAll() {
    std::vector<std::coroutine_handle<>> Hs;
    Hs.swap(Waiting);
    for (std::coroutine_handle<> H : Hs)
      H.resume();
  }
};

/// What a patterned task reports: where its buffer lives and whether the
/// pattern survived the suspension.
struct PatternOut {
  const unsigned char *Buf = nullptr;
  size_t Size = 0;
  bool Intact = false;
};

/// A task whose frame holds an N-byte buffer across a suspension: it
/// writes a pattern derived from \p Seed, suspends on \p G, and checks
/// the pattern when resumed.
template <size_t N>
Task<void> patterned(unsigned Seed, Gate &G, PatternOut &Out) {
  unsigned char Buf[N] = {};
  for (size_t I = 0; I != N; ++I)
    Buf[I] = static_cast<unsigned char>(Seed * 31 + I);
  Out.Buf = Buf;
  Out.Size = N;
  co_await G;
  bool Intact = true;
  for (size_t I = 0; I != N; ++I)
    Intact &= Buf[I] == static_cast<unsigned char>(Seed * 31 + I);
  Out.Intact = Intact;
}

/// Creates a patterned task of the I-th size (the last three are larger
/// than the arena's biggest size class, so their blocks are not reused).
Task<void> patternedOfSize(unsigned I, unsigned Seed, Gate &G,
                           PatternOut &Out) {
  switch (I % 9) {
  case 0: return patterned<8>(Seed, G, Out);
  case 1: return patterned<56>(Seed, G, Out);
  case 2: return patterned<120>(Seed, G, Out);
  case 3: return patterned<130>(Seed, G, Out);
  case 4: return patterned<500>(Seed, G, Out);
  case 5: return patterned<1000>(Seed, G, Out);
  case 6: return patterned<2000>(Seed, G, Out);
  case 7: return patterned<4000>(Seed, G, Out);
  default: return patterned<6000>(Seed, G, Out);
  }
}

} // namespace

TEST(FrameArenaTest, FramesOfDifferentSizesNeverShareABlock) {
  // Rounds of 36 live frames of nine sizes; each round destroys the
  // previous round's frames in a shuffled order first, so blocks are
  // recycled across rounds. Live buffers must be disjoint, inside the
  // arena, and keep their patterns across the suspension.
  detail::FrameArena A;
  detail::FrameArena::Scope In(A);
  std::vector<std::optional<Task<void>>> Tasks(36);
  std::vector<PatternOut> Outs(36);
  Gate G;
  for (unsigned Round = 0; Round != 6; ++Round) {
    for (unsigned K = 0; K != Tasks.size(); ++K)
      Tasks[(K * 7 + Round) % Tasks.size()].reset();
    for (unsigned I = 0; I != Tasks.size(); ++I) {
      Outs[I] = PatternOut();
      Tasks[I].emplace(patternedOfSize(I + Round, Round * 100 + I, G, Outs[I]));
      Tasks[I]->handle().resume();
      EXPECT_TRUE(A.owns(Tasks[I]->handle().address()));
    }
    for (unsigned I = 0; I != Outs.size(); ++I)
      for (unsigned J = 0; J != I; ++J)
        EXPECT_TRUE(Outs[I].Buf + Outs[I].Size <= Outs[J].Buf ||
                    Outs[J].Buf + Outs[J].Size <= Outs[I].Buf)
            << "round " << Round << ": frames " << J << " and " << I
            << " overlap";
    G.openAll();
    for (unsigned I = 0; I != Tasks.size(); ++I) {
      EXPECT_TRUE(Tasks[I]->done());
      EXPECT_TRUE(Outs[I].Intact) << "round " << Round << ", frame " << I;
    }
  }
}

TEST(FrameArenaTest, FramesOutsideAScopeComeFromOperatorNew) {
  Gate G;
  PatternOut Out;
  detail::FrameArena A;
  std::optional<Task<void>> Outside(patterned<300>(1, G, Out));
  EXPECT_FALSE(A.owns(Outside->handle().address()));
  {
    detail::FrameArena::Scope In(A);
    Task<void> Inside = patterned<300>(2, G, Out);
    EXPECT_TRUE(A.owns(Inside.handle().address()));
    // A frame from operator new goes back there, scope or not.
    Outside.reset();
  }
  EXPECT_EQ(detail::FrameArena::current(), nullptr);
}

TEST(FrameArenaTest, RestoreRevivesABlockFreedAfterTheCopy) {
  // A frame destroyed after a snapshot comes back on restore: its bytes,
  // and its block's absence from the free list.
  detail::FrameArena A;
  auto *P = static_cast<unsigned char *>(A.allocate(300));
  std::memset(P, 0xAB, 300);
  std::vector<unsigned char> Copy(A.data(), A.data() + A.used());
  A.deallocate(P, 300);
  auto *Q = static_cast<unsigned char *>(A.allocate(300));
  ASSERT_EQ(Q, P) << "a freed block serves the next frame of its class";
  std::memset(Q, 0xCD, 300);
  A.restore(Copy.data(), Copy.size());
  EXPECT_EQ(A.used(), Copy.size());
  for (size_t I = 0; I != 300; ++I)
    ASSERT_EQ(P[I], 0xAB) << "byte " << I;
  EXPECT_NE(A.allocate(300), P) << "the revived block was handed out";
}

TEST(FrameArenaTest, RestoreAbandonsABlockTakenAfterTheCopy) {
  // A frame created after a snapshot is abandoned on restore, whether its
  // block came off the used end or off a free list.
  detail::FrameArena A;
  void *Freed = A.allocate(200);
  A.deallocate(Freed, 200);
  std::vector<unsigned char> Copy(A.data(), A.data() + A.used());
  void *FromList = A.allocate(200);
  void *FromEnd = A.allocate(1000);
  EXPECT_EQ(FromList, Freed);
  EXPECT_GT(A.used(), Copy.size());
  A.restore(Copy.data(), Copy.size());
  EXPECT_EQ(A.used(), Copy.size());
  EXPECT_EQ(A.allocate(200), FromList);
  EXPECT_EQ(A.allocate(1000), FromEnd);
}

namespace {

Task<void> loadTwiceThenStore(Env &E, Loc X, Value V) {
  auto A = addSub(E, X);
  co_await A;
  auto B = addSub(E, X);
  co_await B;
  co_await E.store(X, V, MemOrder::Release);
}

} // namespace

TEST(FrameArenaTest, ParallelExploreOnHelperThreads) {
  // Every worker's engine creates, snapshots, restores and destroys its
  // executions' frames in its own arena on its own thread, and destroys
  // the last execution's frames before the call returns; the parked
  // helpers outlive the call and serve the second one.
  Explorer::Options Opts;
  Opts.Workers = 4;
  Workload W(Opts, [] {
    Workload::Body B;
    B.Setup = [](Machine &M, Scheduler &S) {
      Loc X = M.alloc("x");
      for (Value V = 1; V != 4; ++V) {
        Env &E = S.newThread();
        S.start(E, loadTwiceThenStore(E, X, V));
      }
    };
    B.CowSafe = true;
    return B;
  });
  Explorer::Summary Serial = exploreSerial(W);
  ASSERT_TRUE(Serial.Exhausted);
  ASSERT_GT(Serial.Executions, 100u);
  for (int Call = 0; Call != 2; ++Call) {
    Explorer::Summary Sum = explore(W);
    EXPECT_TRUE(Sum.Exhausted);
    EXPECT_EQ(Sum.Executions, Serial.Executions);
    EXPECT_EQ(Sum.Completed, Serial.Completed);
  }
}

//===----------------------------------------------------------------------===//
// Copy-on-write client state (Workload::Body::CowSave)
//===----------------------------------------------------------------------===//

namespace {

/// Reads x (choosing between thread 1's write and the initial value), sets
/// the sink only when it read 1, then records what it read in z.
Task<void> conditionalSinkReader(Env &E, Loc X, Loc Z, Value *Sink) {
  Value V = co_await E.load(X, MemOrder::Relaxed);
  if (V == 1)
    *Sink = 1;
  co_await E.store(Z, V, MemOrder::Relaxed);
}

Task<void> storeOne(Env &E, Loc X) {
  co_await E.store(X, 1, MemOrder::Relaxed);
}

/// The sink must say whether thread 0 read 1, which z records in the
/// machine. A resume from the read's snapshot runs no step before it, so
/// after a sibling that read 1 the sink keeps that sibling's write unless
/// the body saves it (\p SaveSink) instead of declaring itself CowSafe.
Workload conditionalSinkWorkload(EnginePath Engine, bool SaveSink) {
  Explorer::Options Opts;
  Opts.Engine = Engine;
  return Workload(Opts, [SaveSink]() -> Workload::Body {
    auto Sink = std::make_shared<Value>();
    auto ZLoc = std::make_shared<Loc>();
    Workload::Body B{
        [Sink, ZLoc](Machine &M, Scheduler &S) {
          *Sink = 0;
          Loc X = M.alloc("x");
          *ZLoc = M.alloc("z");
          Env &E0 = S.newThread();
          S.start(E0, conditionalSinkReader(E0, X, *ZLoc, Sink.get()));
          Env &E1 = S.newThread();
          S.start(E1, storeOne(E1, X));
        },
        [Sink, ZLoc](Machine &M, Scheduler &, Scheduler::RunResult R) {
          return R == Scheduler::RunResult::Done &&
                 *Sink == (M.memory().cell(*ZLoc).latestVal() == 1);
        }};
    if (SaveSink)
      test::saveSinks(B, {Sink});
    else
      B.CowSafe = true;
    return B;
  });
}

} // namespace

TEST(CowClientState, ConditionalSinkMatchesRootReplayOnlyWhenSaved) {
  Explorer::Summary Root =
      exploreSerial(conditionalSinkWorkload(EnginePath::RootReplay, true));
  ASSERT_TRUE(Root.Exhausted);
  EXPECT_EQ(Root.Violations, 0u) << Root.str();
  EXPECT_EQ(Root.Perf.CowResumes, 0u);

  Explorer::Summary Saved =
      exploreSerial(conditionalSinkWorkload(EnginePath::Auto, true));
  EXPECT_GT(Saved.Perf.CowResumes, 0u);
  EXPECT_TRUE(Root.coreEquals(Saved))
      << "root: " << Root.str() << "\ncow:  " << Saved.str();

  // Declared CowSafe, the body is wrong: a resumed execution that reads 0
  // sees the sink its sibling set.
  Explorer::Summary Unsaved =
      exploreSerial(conditionalSinkWorkload(EnginePath::Auto, false));
  EXPECT_GT(Unsaved.Violations, 0u) << Unsaved.str();
  EXPECT_FALSE(Root.coreEquals(Unsaved));
}
