//===-- tests/AllocTest.cpp - Allocation budget of one execution ----------===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the allocation discipline of DESIGN.md §11: coroutine frames from
/// the engine's arena, one arena per thread rather than per call, and the
/// per-execution operator new calls of the checker's unreduced serial
/// exploration. The binary replaces the global operator
/// new and delete with counting versions, so it is a binary of its own;
/// the sanitizer builds leave it out (their runtimes replace the same
/// functions).
///
//===----------------------------------------------------------------------===//

#include "check/Harness.h"
#include "check/ScenarioGen.h"
#include "sim/Scheduler.h"
#include "sim/Task.h"
#include "sim/Workload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <thread>

namespace {
std::atomic<uint64_t> NewCalls{0};
/// operator new calls of 1 MiB or more (a frame arena is one).
std::atomic<uint64_t> BigNewCalls{0};
} // namespace

void *operator new(std::size_t Size) {
  NewCalls.fetch_add(1, std::memory_order_relaxed);
  if (Size >= (std::size_t(1) << 20))
    BigNewCalls.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

using namespace compass;
using namespace compass::check;

namespace {

sim::Task<int> leaf(int X) { co_return X + 1; }

sim::Task<int> parent(int X) {
  auto T = leaf(X);
  int V = co_await T;
  co_return 2 * V;
}

/// A simulated thread: two two-frame operations on \p L.
sim::Task<void> twoOps(sim::Env &E, rmc::Loc L) {
  for (int I = 0; I != 2; ++I) {
    auto T = parent(I);
    rmc::Value V = static_cast<rmc::Value>(co_await T);
    co_await E.store(L, V, rmc::MemOrder::Relaxed);
  }
}

} // namespace

TEST(FrameArena, RootRunsCallNoOperatorNewOnceWarm) {
  // What an engine does per root run: destroy the previous execution's
  // frames, rewind the arena, re-create the threads and run them. Once
  // the arena, machine and scheduler exist, no frame comes from operator
  // new, nor anything else.
  FirstChoice Choice;
  rmc::Machine M(Choice);
  sim::Scheduler S(M, Choice);
  sim::detail::FrameArena A;
  uint64_t Before = 0;
  for (int Run = 0; Run != 1000; ++Run) {
    if (Run == 1)
      Before = NewCalls.load();
    sim::detail::FrameArena::Scope In(A);
    M.reset();
    S.reset();
    A.clear();
    rmc::Loc L = M.alloc("l");
    for (int T = 0; T != 3; ++T) {
      sim::Env &E = S.newThread();
      S.start(E, twoOps(E, L));
    }
    ASSERT_EQ(S.run(), sim::Scheduler::RunResult::Done);
    sim::Task<int> Unstarted = leaf(Run); // Destroyed without running.
  }
  EXPECT_EQ(NewCalls.load() - Before, 0u)
      << "a root run called operator new after the warm-up";
  sim::detail::FrameArena::Scope In(A);
  S.reset();
}

TEST(FrameArena, ASecondCallOnAWarmThreadBuildsNoArena) {
  // The calling thread keeps its kit, frame arena included, from one
  // explore call to the next (sim/ParallelExplorer.h).
  Scenario S = generateScenario(Lib::MsQueue, scenarioSeed(1, Lib::MsQueue, 0));
  sim::Workload W = makeWorkload(
      S, Mutation::None, scenarioOptions(S, 50000, 1, sim::ReductionMode::None));
  std::thread T([&] {
    const uint64_t Before = BigNewCalls.load();
    EXPECT_TRUE(sim::explore(W).Exhausted);
    EXPECT_GE(BigNewCalls.load() - Before, 1u)
        << "the first call on a thread builds its kit's arena";
    const uint64_t Warm = BigNewCalls.load();
    EXPECT_TRUE(sim::explore(W).Exhausted);
    EXPECT_EQ(BigNewCalls.load() - Warm, 0u)
        << "a call on a warm thread allocated a block of 1 MiB or more";
  });
  T.join();
}

// operator new calls per execution of unreduced serial exploration (the
// perfbench oracle configuration): 2 threads of 1-3 ops, preemption bound
// 1, eight generated scenarios per library, every execution verdict-checked.
// Counted from the end of each exploration's first execution, so the
// exploration's warm-up (the body's RunState, the thread's kit on its first
// call, and the first execution's frames) is left out; memo inserts,
// verdicts on memo misses and the snapshot storage deeper paths than any
// earlier call's first need are in. Measured (GCC 12, Release): 1.05 per
// execution (exchanger) to 3.79 (spsc_ring); 5.42 for spsc_ring while every
// call built its own kit and so regrew its snapshot slots. The bound is the
// largest plus 2. Before frame recycling and retained per-execution storage
// the same scenarios took 23-59 per execution.
TEST(AllocBudget, UnreducedExplorationPerExecution) {
  constexpr double Bound = 5.8;
  GenOptions G;
  G.MinThreads = G.MaxThreads = 2;
  G.MinOpsPerThread = 1;
  G.MaxOpsPerThread = 3;
  G.MinPreemptions = G.MaxPreemptions = 1;
  for (unsigned I = 0; I != NumLibs; ++I) {
    const Lib L = allLibs()[I];
    uint64_t Calls = 0, Execs = 0;
    for (unsigned K = 0; K != 8; ++K) {
      Scenario S = generateScenario(L, scenarioSeed(1, L, K), G);
      sim::Workload W =
          makeWorkload(S, Mutation::None,
                       scenarioOptions(S, 50000, 1, sim::ReductionMode::None));
      sim::Workload::Body B = W.makeBody();
      uint64_t Checks = 0, AfterFirst = 0;
      B.Check = [&, Check = std::move(B.Check)](rmc::Machine &M,
                                                sim::Scheduler &Sch,
                                                sim::Scheduler::RunResult R) {
        bool Ok = Check(M, Sch, R);
        if (Checks++ == 0)
          AfterFirst = NewCalls.load();
        return Ok;
      };
      sim::Explorer::Summary Sum =
          sim::explore(sim::Workload(W.options(), std::move(B)));
      ASSERT_EQ(Checks, Sum.Executions);
      Calls += NewCalls.load() - AfterFirst;
      Execs += Sum.Executions - 1;
      EXPECT_EQ(Sum.Violations, 0u) << S.str();
    }
    ASSERT_GT(Execs, 0u);
    const double PerExec = double(Calls) / double(Execs);
    std::printf("%-14s %8llu executions %9llu operator new  %.2f per "
                "execution\n",
                libName(L), static_cast<unsigned long long>(Execs),
                static_cast<unsigned long long>(Calls), PerExec);
    EXPECT_LE(PerExec, Bound) << libName(L);
  }
}
