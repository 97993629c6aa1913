//===-- tests/ParallelTest.cpp - Parallel exploration determinism ----------===//
//
// The determinism suite for the parallel exploration engine: for each
// workload (SB / MP / CoRR litmus tests plus the E2 MS-queue configuration)
// the Summary's deterministic core — executions, completed, races,
// violations, Exhausted, MaxDepth, per-tag choice statistics, and the first
// violating trace — must be bit-identical across 1, 2, and 4 workers. Also
// covers counterexample surfacing + replay() reproduction, the Workload
// replay entry point, and the conformance harness (generated scenario
// workloads, the sweep's among them, DESIGN.md §7) across worker counts,
// the parked helper threads: reused across calls, shared by concurrent
// callers, never taken by a one-worker call, and the kits each thread
// keeps from call to call: a warm kit gives a call what a new one gives.
//
//===----------------------------------------------------------------------===//

#include "SimTestUtil.h"
#include "check/Conformance.h"
#include "lib/MsQueue.h"
#include "sim/ParallelExplorer.h"
#include "sim/Workload.h"
#include "spec/Consistency.h"
#include "spec/SpecMonitor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <latch>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

using namespace compass;
using namespace compass::rmc;
using namespace compass::sim;

namespace {

//===----------------------------------------------------------------------===//
// Litmus workload bodies
//===----------------------------------------------------------------------===//

Task<void> sbThread(Env &E, Loc Mine, Loc Theirs, Value *R) {
  co_await E.store(Mine, 1, MemOrder::Relaxed);
  *R = co_await E.load(Theirs, MemOrder::Relaxed);
}

Task<void> mpWriter(Env &E, Loc X, Loc F, MemOrder StoreO) {
  co_await E.store(X, 1, MemOrder::Relaxed);
  co_await E.store(F, 1, StoreO);
}

Task<void> mpReader(Env &E, Loc X, Loc F, MemOrder LoadO, Value *Flag,
                    Value *Data) {
  *Flag = co_await E.load(F, LoadO);
  *Data = co_await E.load(X, MemOrder::Relaxed);
}

Task<void> corrWriter(Env &E, Loc X) {
  co_await E.store(X, 1, MemOrder::Relaxed);
  co_await E.store(X, 2, MemOrder::Relaxed);
}

Task<void> corrReader(Env &E, Loc X, Value *R1, Value *R2) {
  *R1 = co_await E.load(X, MemOrder::Relaxed);
  *R2 = co_await E.load(X, MemOrder::Relaxed);
}

/// Store-buffering litmus; check: never both-zero *and* fully relaxed, so
/// the check FAILS on the weak outcome — used to exercise violation
/// surfacing deterministically. With \p ExpectWeak the check passes always.
Workload sbWorkload(unsigned Workers, bool FailOnWeak) {
  Explorer::Options Opts;
  Opts.Workers = Workers;
  return Workload(Opts, [FailOnWeak]() -> Workload::Body {
    auto R0 = std::make_shared<Value>();
    auto R1 = std::make_shared<Value>();
    Workload::Body B{
        [R0, R1](Machine &M, Scheduler &S) {
          *R0 = *R1 = ~0ull;
          Loc X = M.alloc("x"), Y = M.alloc("y");
          Env &E0 = S.newThread();
          S.start(E0, sbThread(E0, X, Y, R0.get()));
          Env &E1 = S.newThread();
          S.start(E1, sbThread(E1, Y, X, R1.get()));
        },
        [R0, R1, FailOnWeak](Machine &, Scheduler &,
                             Scheduler::RunResult R) {
          if (R != Scheduler::RunResult::Done)
            return false;
          if (FailOnWeak && *R0 == 0 && *R1 == 0)
            return false; // the store-buffering outcome
          return true;
        }};
    // The only client state is the two result sinks.
    test::saveSinks(B, {R0, R1});
    return B;
  });
}

/// Message-passing litmus. With relaxed orderings the "no stale data"
/// check has violating executions (flag=1, data=0).
Workload mpWorkload(unsigned Workers, MemOrder StoreO, MemOrder LoadO) {
  Explorer::Options Opts;
  Opts.Workers = Workers;
  return Workload(Opts, [StoreO, LoadO]() -> Workload::Body {
    auto Flag = std::make_shared<Value>();
    auto Data = std::make_shared<Value>();
    Workload::Body B{
        [=](Machine &M, Scheduler &S) {
          *Flag = *Data = 0;
          Loc X = M.alloc("x"), F = M.alloc("f");
          Env &E0 = S.newThread();
          S.start(E0, mpWriter(E0, X, F, StoreO));
          Env &E1 = S.newThread();
          S.start(E1, mpReader(E1, X, F, LoadO, Flag.get(), Data.get()));
        },
        [Flag, Data](Machine &, Scheduler &, Scheduler::RunResult R) {
          if (R != Scheduler::RunResult::Done)
            return false;
          return !(*Flag == 1 && *Data == 0); // no stale data
        }};
    test::saveSinks(B, {Flag, Data});
    return B;
  });
}

/// Coherence litmus; check: reads never go backwards (always passes).
Workload corrWorkload(unsigned Workers) {
  Explorer::Options Opts;
  Opts.Workers = Workers;
  return Workload(Opts, []() -> Workload::Body {
    auto R1 = std::make_shared<Value>();
    auto R2 = std::make_shared<Value>();
    Workload::Body B{
        [R1, R2](Machine &M, Scheduler &S) {
          *R1 = *R2 = 0;
          Loc X = M.alloc("x");
          Env &E0 = S.newThread();
          S.start(E0, corrWriter(E0, X));
          Env &E1 = S.newThread();
          S.start(E1, corrReader(E1, X, R1.get(), R2.get()));
        },
        [R1, R2](Machine &, Scheduler &, Scheduler::RunResult) {
          return *R1 <= *R2;
        }};
    test::saveSinks(B, {R1, R2});
    return B;
  });
}

/// The E2 MS-queue configuration: one enqueuer of {1,2}, two single-shot
/// dequeuers, preemption bound 2, checked against QueueConsistent. The
/// body factory gives every parallel worker its own monitor/queue state.
Workload msQueueWorkload(unsigned Workers) {
  Explorer::Options Opts;
  Opts.Workers = Workers;
  Opts.PreemptionBound = 2;
  Opts.MaxExecutions = 500'000;
  return Workload(Opts, []() -> Workload::Body {
    struct State {
      std::unique_ptr<spec::SpecMonitor> Mon;
      std::unique_ptr<lib::MsQueue> Q;
      std::vector<Value> Got0, Got1;
    };
    auto St = std::make_shared<State>();
    Workload::Body B{
        [St](Machine &M, Scheduler &S) {
          if (!St->Mon)
            St->Mon = std::make_unique<spec::SpecMonitor>();
          St->Mon->reset();
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
    // Copy-on-write client state: the monitor's event graph rewinds by
    // epoch; the dequeuers' result sinks are saved and restored whole.
    struct CowState {
      spec::SpecMonitor::Epoch MonEpoch;
      std::vector<Value> Got0, Got1;
    };
    B.CowSave = [St](std::shared_ptr<void> &Slot) {
      if (!Slot)
        Slot = std::make_shared<CowState>();
      auto &C = *std::static_pointer_cast<CowState>(Slot);
      C.MonEpoch = St->Mon->epoch();
      C.Got0 = St->Got0;
      C.Got1 = St->Got1;
    };
    B.CowRestore = [St](const std::shared_ptr<void> &Slot) {
      const auto &C = *std::static_pointer_cast<CowState>(Slot);
      St->Mon->trimToEpoch(C.MonEpoch);
      St->Got0 = C.Got0;
      St->Got1 = C.Got1;
    };
    return B;
  });
}

/// Asserts bit-identical deterministic cores across 1/2/4 workers.
void expectDeterministic(Workload (*Make)(unsigned), const char *Name) {
  auto S1 = explore(Make(1));
  auto S2 = explore(Make(2));
  auto S4 = explore(Make(4));
  EXPECT_EQ(S1.Executions, S2.Executions) << Name;
  EXPECT_EQ(S1.Executions, S4.Executions) << Name;
  EXPECT_EQ(S1.Completed, S4.Completed) << Name;
  EXPECT_EQ(S1.Races, S4.Races) << Name;
  EXPECT_EQ(S1.Violations, S4.Violations) << Name;
  EXPECT_EQ(S1.Exhausted, S4.Exhausted) << Name;
  EXPECT_TRUE(S1.coreEquals(S2))
      << Name << "\nserial:   " << S1.str() << "\n2-worker: " << S2.str();
  EXPECT_TRUE(S1.coreEquals(S4))
      << Name << "\nserial:   " << S1.str() << "\n4-worker: " << S4.str();
  EXPECT_EQ(S4.Perf.Workers, 4u);
}

} // namespace

//===----------------------------------------------------------------------===//
// Determinism suite
//===----------------------------------------------------------------------===//

TEST(ParallelDeterminism, StoreBufferingLitmus) {
  expectDeterministic(+[](unsigned W) { return sbWorkload(W, false); },
                      "SB");
}

TEST(ParallelDeterminism, StoreBufferingLitmusWithViolations) {
  expectDeterministic(+[](unsigned W) { return sbWorkload(W, true); },
                      "SB/weak-fails");
}

TEST(ParallelDeterminism, MessagePassingLitmusRelAcq) {
  expectDeterministic(
      +[](unsigned W) {
        return mpWorkload(W, MemOrder::Release, MemOrder::Acquire);
      },
      "MP rel/acq");
}

TEST(ParallelDeterminism, MessagePassingLitmusRelaxed) {
  expectDeterministic(
      +[](unsigned W) {
        return mpWorkload(W, MemOrder::Relaxed, MemOrder::Relaxed);
      },
      "MP rlx");
}

TEST(ParallelDeterminism, CoRRLitmus) {
  expectDeterministic(+[](unsigned W) { return corrWorkload(W); }, "CoRR");
}

TEST(ParallelDeterminism, MsQueueE2Workload) {
  expectDeterministic(+[](unsigned W) { return msQueueWorkload(W); },
                      "MS queue E2");
}

//===----------------------------------------------------------------------===//
// The calling thread is worker 0
//===----------------------------------------------------------------------===//

namespace {

/// The ids of the threads that built a worker body.
struct ThreadLog {
  std::mutex Mu;
  std::set<std::thread::id> Ids;
};

/// msQueueWorkload(Workers) whose body factory also records its thread in
/// \p Log. Every worker builds its body before it takes a prefix, so the
/// log names exactly the threads that ran a worker. (Logging in Setup would
/// miss the caller whenever a helper steals the root prefix first.)
Workload loggedWorkload(unsigned Workers, std::shared_ptr<ThreadLog> Log) {
  Workload Inner = msQueueWorkload(Workers);
  return Workload(Inner.options(), [Inner, Log] {
    {
      std::lock_guard<std::mutex> L(Log->Mu);
      Log->Ids.insert(std::this_thread::get_id());
    }
    return Inner.makeBody();
  });
}

} // namespace

TEST(CallerIsWorkerZero, OneWorkerRunsEveryExecutionOnTheCaller) {
  const std::set<std::thread::id> Caller{std::this_thread::get_id()};
  auto Log = std::make_shared<ThreadLog>();
  EXPECT_TRUE(explore(loggedWorkload(1, Log)).Exhausted);
  EXPECT_EQ(Log->Ids, Caller) << "explore";

  Log->Ids.clear();
  EXPECT_FALSE(
      exploreResumable(loggedWorkload(1, Log), ExploreControl{}).Interrupted);
  EXPECT_EQ(Log->Ids, Caller) << "exploreResumable";

  // exploreSerial runs one worker whatever Options::Workers says.
  for (unsigned Workers : {1u, 4u}) {
    Log->Ids.clear();
    Explorer::Summary S = exploreSerial(loggedWorkload(Workers, Log));
    EXPECT_EQ(S.Perf.Workers, 1u);
    EXPECT_EQ(Log->Ids, Caller) << "exploreSerial, Workers=" << Workers;
  }

  // A one-worker call takes no helper, even with helpers parked after a
  // 4-worker call.
  EXPECT_TRUE(explore(loggedWorkload(4, std::make_shared<ThreadLog>()))
                  .Exhausted);
  Log->Ids.clear();
  EXPECT_TRUE(explore(loggedWorkload(1, Log)).Exhausted);
  EXPECT_EQ(Log->Ids, Caller) << "explore after a 4-worker call";
}

TEST(CallerIsWorkerZero, TheCallerIsOneOfFourWorkers) {
  auto Log = std::make_shared<ThreadLog>();
  Explorer::Summary S = explore(loggedWorkload(4, Log));
  EXPECT_TRUE(S.Exhausted);
  EXPECT_EQ(S.Perf.Workers, 4u);
  EXPECT_EQ(Log->Ids.count(std::this_thread::get_id()), 1u);
  EXPECT_EQ(Log->Ids.size(), 4u);
}

//===----------------------------------------------------------------------===//
// Conformance-harness determinism (DESIGN.md §7)
//===----------------------------------------------------------------------===//

namespace {

/// A generated conformance scenario, and its workload over the pristine (or
/// mutated) library; the Summary core must be worker-count independent like
/// any other workload. Hunting-sized scenarios keep the decision tree
/// comfortably inside the execution budget — a *truncated* tree's explored
/// subset (and hence MaxDepth) is worker-count dependent by design, which
/// is also why SweepReport's fingerprint only folds exhausted scenarios.
check::Scenario conformanceScenario(check::Lib L, uint64_t Seed) {
  check::GenOptions G;
  G.MaxThreads = 2;
  G.MaxOpsPerThread = 2;
  G.MinPreemptions = G.MaxPreemptions = 1;
  return check::generateScenario(L, check::scenarioSeed(Seed, L, 0), G);
}

Workload conformanceWorkload(check::Lib L, check::Mutation Mut, uint64_t Seed,
                             unsigned Workers,
                             ReductionMode Red = ReductionMode::SourceSet) {
  check::Scenario S = conformanceScenario(L, Seed);
  return check::makeWorkload(
      S, Mut, check::scenarioOptions(S, 200000, Workers, Red));
}

} // namespace

TEST(ParallelDeterminism, ConformancePristineMsQueueScenario) {
  expectDeterministic(
      +[](unsigned W) {
        return conformanceWorkload(check::Lib::MsQueue,
                                   check::Mutation::None, 11, W);
      },
      "conformance ms_queue pristine");
}

TEST(ParallelDeterminism, ConformanceMutatedTreiberScenario) {
  // With StopOnViolation off (scenarioOptions' default), even a
  // violation-dense mutated tree has a worker-count independent core —
  // including the *first* violating trace in DFS order.
  auto Make = +[](unsigned W) {
    return conformanceWorkload(check::Lib::TreiberStack,
                               check::Mutation::TreiberRelaxedPopHead, 13, W);
  };
  ASSERT_GT(explore(Make(1)).Violations, 0u)
      << "scenario no longer exercises the mutant; pick a new seed";
  expectDeterministic(Make, "conformance treiber mutant");
}

TEST(ParallelDeterminism, SweepScenariosAcrossWorkers) {
  // The sweep explores each scenario at one worker; splitting the same
  // generated trees between 1, 2 and 4 workers must give the same cores.
  check::SweepOptions O;
  O.Seed = 5;
  O.ScenariosPerLib = 2;
  O.MaxExecutionsPerScenario = 60000;
  O.Libs = {check::Lib::MsQueue, check::Lib::TreiberStack,
            check::Lib::Exchanger, check::Lib::SpscRing};
  for (const Explorer::Summary &S :
       test::expectSweepScenariosAgreeAcrossWorkers(O)) {
    EXPECT_TRUE(S.Exhausted) << S.str();
    EXPECT_EQ(S.Violations + S.Races + S.Deadlocks, 0u) << S.str();
  }
}

//===----------------------------------------------------------------------===//
// Parked helper threads
//===----------------------------------------------------------------------===//

TEST(ParkedHelpers, ConsecutiveCallsReuseThreeHelpers) {
  // Threads other than the caller that ran a Setup in this run of the
  // test, each counted once: a thread_local mark is fresh in every new
  // thread, even one that reuses an exited thread's id, and the run number
  // keeps a repeated test from trusting an earlier run's marks.
  static std::atomic<unsigned> Runs{0};
  const unsigned Run = ++Runs;
  auto Helpers = std::make_shared<std::atomic<unsigned>>(0);
  const std::thread::id Caller = std::this_thread::get_id();
  Workload Inner = msQueueWorkload(4);
  Workload W(Inner.options(), [Inner, Run, Helpers, Caller] {
    Workload::Body B = Inner.makeBody();
    B.Setup = [Setup = std::move(B.Setup), Run, Helpers,
               Caller](Machine &M, Scheduler &S) {
      thread_local unsigned Marked = 0;
      if (Marked != Run && std::this_thread::get_id() != Caller)
        Helpers->fetch_add(1);
      Marked = Run;
      Setup(M, S);
    };
    return B;
  });
  for (int Call = 0; Call != 20; ++Call)
    EXPECT_TRUE(explore(W).Exhausted);
  EXPECT_GE(Helpers->load(), 1u) << "no helper ever ran an execution";
  EXPECT_LE(Helpers->load(), 3u) << "4-worker calls started new threads";
}

TEST(ParkedHelpers, ConcurrentCallersEachGetTheirOneWorkerCore) {
  // Two callers explore different workloads at 4 workers at once, again
  // and again, so their calls overlap and share the parked helpers.
  auto Queue = [](unsigned W) { return msQueueWorkload(W); };
  auto Stack = [](unsigned W) {
    return conformanceWorkload(check::Lib::TreiberStack,
                               check::Mutation::TreiberRelaxedPopHead, 13, W);
  };
  // The number of calls whose summary core differs from \p Want's.
  auto Mismatches = [](const Workload &W, const Explorer::Summary &Want,
                       int Calls) {
    unsigned N = 0;
    for (int Call = 0; Call != Calls; ++Call) {
      Explorer::Summary S = explore(W);
      N += S.Perf.Workers != 4 || !Want.coreEquals(S);
    }
    return N;
  };
  const Explorer::Summary SerialQueue = explore(Queue(1));
  const Explorer::Summary SerialStack = explore(Stack(1));
  unsigned QueueBad = 0, StackBad = 0;
  std::latch Start(2);
  std::thread A([&] {
    Start.arrive_and_wait();
    QueueBad = Mismatches(Queue(4), SerialQueue, 5);
  });
  std::thread B([&] {
    Start.arrive_and_wait();
    StackBad = Mismatches(Stack(4), SerialStack, 200);
  });
  A.join();
  B.join();
  EXPECT_EQ(QueueBad, 0u);
  EXPECT_EQ(StackBad, 0u);
}

//===----------------------------------------------------------------------===//
// Counterexample surfacing and replay
//===----------------------------------------------------------------------===//

TEST(ParallelCounterexample, ViolationTraceReplaysToSameFailure) {
  // Relaxed MP has stale-data executions; any worker may find one, but the
  // surfaced trace must be the lexicographically least == the serial first.
  Workload W1 = mpWorkload(1, MemOrder::Relaxed, MemOrder::Relaxed);
  Workload W4 = mpWorkload(4, MemOrder::Relaxed, MemOrder::Relaxed);
  auto S1 = explore(W1);
  auto S4 = explore(W4);
  ASSERT_TRUE(S1.HasViolation);
  ASSERT_TRUE(S4.HasViolation);
  EXPECT_GT(S4.Violations, 0u);
  EXPECT_EQ(S1.firstViolationDecisions(), S4.firstViolationDecisions());

  // Replaying the surfaced trace reproduces the same failing check.
  ReplayResult RR = replay(W4, S4.firstViolationDecisions());
  EXPECT_EQ(RR.Run, Scheduler::RunResult::Done);
  EXPECT_FALSE(RR.CheckOk) << "replay must reproduce the violation";
  EXPECT_FALSE(RR.Diverged);

  // The pretty-printer names each decision with its kind and arity.
  std::string Pretty = Explorer::formatTrace(S4.FirstViolation);
  EXPECT_NE(Pretty.find("#0 "), std::string::npos);
  EXPECT_NE(Pretty.find("alts) -> "), std::string::npos);
  EXPECT_NE(Pretty.find("sched"), std::string::npos);
}

TEST(ParallelCounterexample, CleanWorkloadHasNoViolation) {
  auto Sum = explore(mpWorkload(4, MemOrder::Release, MemOrder::Acquire));
  EXPECT_EQ(Sum.Violations, 0u);
  EXPECT_FALSE(Sum.HasViolation);
  EXPECT_TRUE(Sum.Exhausted);
}

namespace {

/// Reference: the lexicographically least violating decision sequence is
/// what a *full* serial exploration surfaces (DFS first == lex-min, and
/// recordCheck keeps the lex-min across the whole run).
std::vector<unsigned> lexMinViolation(Workload W) {
  W.options().StopOnViolation = false;
  W.options().Workers = 1;
  auto Sum = explore(W);
  EXPECT_TRUE(Sum.HasViolation);
  return Sum.firstViolationDecisions();
}

/// Pins the StopOnViolation guarantee: whatever Workers says, the search
/// runs at one worker, stops at its first violation, and that violation
/// is the lex-min violating decision sequence. \p Make builds the
/// workload at a given worker count.
void expectLexMinStop(const std::function<Workload(unsigned)> &Make,
                      const char *Name) {
  std::vector<unsigned> Ref = lexMinViolation(Make(1));
  ASSERT_FALSE(Ref.empty()) << Name;
  for (unsigned W : {1u, 2u, 4u}) {
    Workload Wl = Make(W);
    Wl.options().StopOnViolation = true;
    auto Sum = explore(Wl);
    EXPECT_EQ(Sum.Perf.Workers, 1u) << Name << " workers=" << W;
    EXPECT_EQ(Sum.Violations, 1u) << Name << " workers=" << W;
    ASSERT_TRUE(Sum.HasViolation) << Name << " workers=" << W;
    EXPECT_EQ(Sum.firstViolationDecisions(), Ref)
        << Name << " workers=" << W
        << ": surfaced violation is not the lex-min sequence";
    // And it replays to the same failing check.
    EXPECT_FALSE(replay(Wl, Sum.firstViolationDecisions()).CheckOk)
        << Name << " workers=" << W;
  }
}

Workload mpRelaxed(unsigned W, ReductionMode R) {
  Workload Wl = mpWorkload(W, MemOrder::Relaxed, MemOrder::Relaxed);
  Wl.options().Reduction = R;
  return Wl;
}

} // namespace

TEST(ParallelCounterexample, StopOnViolationStopsEarly) {
  auto Full = explore(mpWorkload(1, MemOrder::Relaxed, MemOrder::Relaxed));
  for (unsigned W : {1u, 2u, 4u}) {
    Workload Wl = mpWorkload(W, MemOrder::Relaxed, MemOrder::Relaxed);
    Wl.options().StopOnViolation = true;
    auto Sum = explore(Wl);
    EXPECT_EQ(Sum.Perf.Workers, 1u) << "workers=" << W;
    EXPECT_EQ(Sum.Violations, 1u) << "workers=" << W;
    EXPECT_LT(Sum.Executions, Full.Executions) << "workers=" << W;
    EXPECT_EQ(Sum.firstViolationDecisions(), Full.firstViolationDecisions())
        << "workers=" << W;
  }
}

TEST(ParallelCounterexample, StopOnViolationIsLexMin) {
  expectLexMinStop([](unsigned W) { return mpRelaxed(W, ReductionMode::None); },
                   "MP relaxed, no reduction");
  // The reduced tree is deterministic, so its lex-min violating sequence
  // is too.
  expectLexMinStop(
      [](unsigned W) { return mpRelaxed(W, ReductionMode::SourceSet); },
      "MP relaxed, source reduction");
  // A violation-dense conformance workload (mutated Treiber stack) under
  // the harness's default source-set reduction.
  expectLexMinStop(
      [](unsigned W) {
        return conformanceWorkload(check::Lib::TreiberStack,
                                   check::Mutation::TreiberRelaxedPopHead,
                                   13, W);
      },
      "treiber mutant, source reduction");
}


//===----------------------------------------------------------------------===//
// Workload plumbing
//===----------------------------------------------------------------------===//

TEST(WorkloadTest, ExecutionBudgetMatchesSerialExactly) {
  auto Make = [](unsigned Workers) {
    Workload W = msQueueWorkload(Workers);
    W.options().MaxExecutions = 500; // truncate well below the tree size
    return W;
  };
  auto S1 = explore(Make(1));
  auto S4 = explore(Make(4));
  EXPECT_EQ(S1.Executions, 500u);
  EXPECT_EQ(S4.Executions, 500u);
  EXPECT_FALSE(S1.Exhausted);
  EXPECT_FALSE(S4.Exhausted);
}

TEST(WorkloadTest, TagStatisticsAreCollected) {
  auto Sum = explore(mpWorkload(2, MemOrder::Relaxed, MemOrder::Relaxed));
  const Explorer::TagStat &Sched =
      Sum.Tags[static_cast<size_t>(ChoiceKind::Sched)];
  const Explorer::TagStat &Load =
      Sum.Tags[static_cast<size_t>(ChoiceKind::Load)];
  EXPECT_GT(Sched.Choices, 0u);
  EXPECT_GE(Sched.MaxArity, 2u);
  EXPECT_GT(Load.AltSum, Load.Choices);
}

TEST(WorkloadTest, SummaryJsonIsWellFormed) {
  auto Sum = explore(corrWorkload(2));
  std::string J = Sum.json();
  EXPECT_EQ(J.front(), '{');
  EXPECT_EQ(J.back(), '}');
  EXPECT_NE(J.find("\"executions\":"), std::string::npos);
  EXPECT_NE(J.find("\"execs_per_sec\":"), std::string::npos);
  EXPECT_NE(J.find("\"tags\":{"), std::string::npos);
  EXPECT_NE(J.find("\"sched\":{"), std::string::npos);
  EXPECT_NE(J.find("\"workers\":2"), std::string::npos);
  // Kinds are listed in name order, and a kind with no choices not at all.
  EXPECT_LT(J.find("\"load\":{"), J.find("\"sched\":{"));
  EXPECT_EQ(J.find("\"cas\":{") == std::string::npos,
            Sum.Tags[static_cast<size_t>(ChoiceKind::Cas)].Choices == 0);
}

TEST(WorkloadTest, ExploreExpectHelperPassesCleanWorkload) {
  auto Sum = test::exploreExpectNoViolations(
      mpWorkload(2, MemOrder::Release, MemOrder::Acquire));
  EXPECT_TRUE(Sum.Exhausted);
}

TEST(WorkloadTest, ReplayOfEveryExhaustiveTraceMatchesItsOutcome) {
  // Enumerate CoRR serially, recording each execution's decisions and
  // reader values; then replay each trace and confirm the identical
  // outcome — the replay determinism contract.
  Value R1 = 0, R2 = 0;
  std::vector<std::vector<unsigned>> Traces;
  std::vector<std::pair<Value, Value>> Outcomes;
  Explorer Ex{Explorer::Options{}};
  while (Ex.beginExecution()) {
    Machine M(Ex);
    Scheduler S(M, Ex);
    R1 = R2 = 0;
    Loc X = M.alloc("x");
    Env &E0 = S.newThread();
    S.start(E0, corrWriter(E0, X));
    Env &E1 = S.newThread();
    S.start(E1, corrReader(E1, X, &R1, &R2));
    auto R = S.run(Ex.options().MaxStepsPerExec);
    EXPECT_EQ(R, Scheduler::RunResult::Done);
    Traces.push_back(Ex.currentDecisions());
    Outcomes.push_back({R1, R2});
    Ex.endExecution(R);
  }
  ASSERT_GT(Traces.size(), 4u);

  auto Shared = std::make_shared<std::pair<Value, Value>>();
  Workload W(Explorer::Options{},
             [Shared](Machine &M, Scheduler &S) {
               Loc X = M.alloc("x");
               Env &E0 = S.newThread();
               S.start(E0, corrWriter(E0, X));
               Env &E1 = S.newThread();
               S.start(E1, corrReader(E1, X, &Shared->first,
                                      &Shared->second));
             });
  for (size_t I = 0; I != Traces.size(); ++I) {
    *Shared = {0, 0};
    ReplayResult RR = replay(W, Traces[I]);
    EXPECT_EQ(RR.Run, Scheduler::RunResult::Done);
    EXPECT_FALSE(RR.Diverged);
    EXPECT_EQ(*Shared, Outcomes[I]) << "trace " << I;
  }
}

//===----------------------------------------------------------------------===//
// Engine-path A/B: copy-on-write vs root replay (DESIGN.md Section 11)
//===----------------------------------------------------------------------===//

namespace {

Explorer::Summary exploreWithEngine(Workload W, EnginePath E) {
  W.options().Engine = E;
  return explore(W);
}

/// Pins the engine-equivalence guarantee across worker counts: the
/// copy-on-write engine's summary core — including the first violating
/// trace — is bit-identical to classic root replay's, at 1, 2, and 4
/// workers. \p ExpectResumes additionally asserts the cow fast path
/// actually engaged (CowResumes > 0), so the A/B never passes vacuously.
void expectEngineAB(const std::function<Workload(unsigned)> &Make,
                    const std::string &Name, bool ExpectResumes) {
  for (unsigned Wk : {1u, 2u, 4u}) {
    Explorer::Summary Root =
        exploreWithEngine(Make(Wk), EnginePath::RootReplay);
    Explorer::Summary Cow = exploreWithEngine(Make(Wk), EnginePath::Auto);
    EXPECT_TRUE(Root.Exhausted)
        << Name << " workers=" << Wk
        << ": a truncated tree's explored subset is worker-count dependent";
    EXPECT_EQ(Root.Perf.CowResumes, 0u)
        << Name << " workers=" << Wk << ": RootReplay path took a snapshot";
    if (ExpectResumes) {
      EXPECT_GT(Cow.Perf.CowResumes, 0u)
          << Name << " workers=" << Wk << ": cow path never engaged";
    }
    EXPECT_TRUE(Root.coreEquals(Cow))
        << Name << " workers=" << Wk << "\nroot: " << Root.str()
        << "\ncow:  " << Cow.str();
    EXPECT_EQ(Root.firstViolationDecisions(), Cow.firstViolationDecisions())
        << Name << " workers=" << Wk;
  }
}

/// expectEngineAB for a one-worker workload whose tree may be cut by its
/// execution cap: both paths explore the same DFS prefix of it.
void expectCappedEngineAB(Workload W, const std::string &Name) {
  ASSERT_EQ(W.options().Workers, 1u) << Name;
  Explorer::Summary Root = exploreWithEngine(W, EnginePath::RootReplay);
  Explorer::Summary Cow = exploreWithEngine(W, EnginePath::Auto);
  EXPECT_GT(Cow.Perf.CowResumes, 0u) << Name << ": cow path never engaged";
  EXPECT_TRUE(Root.coreEquals(Cow))
      << Name << "\nroot: " << Root.str() << "\ncow:  " << Cow.str();
  EXPECT_EQ(Root.firstViolationDecisions(), Cow.firstViolationDecisions())
      << Name;
}

/// One digest per execution of a one-worker exploration of \p S on engine
/// path \p E, taken as its Check begins: the machine's state digest (every
/// thread's views, release map, last read and pin state, and the SC view),
/// the run result and the observed results.
std::vector<uint64_t> checkDigests(const check::Scenario &S,
                                   check::Mutation Mut, Explorer::Options Opts,
                                   EnginePath E) {
  Opts.Workers = 1;
  Opts.Engine = E;
  check::Instrumented I = check::makeInstrumented(S, Mut, Opts);
  const check::RunState &St = *I.State;
  std::vector<uint64_t> Out;
  Workload::Body B = I.W.makeBody();
  B.Check = [&, Check = std::move(B.Check)](Machine &M, Scheduler &Sch,
                                            Scheduler::RunResult R) {
    uint64_t H = graph::keyMix(M.stateDigest(), uint64_t(R));
    for (const std::vector<check::Observed> &Thread : St.Results) {
      H = graph::keyMix(H, Thread.size());
      for (const check::Observed &O : Thread)
        H = graph::keyMix(graph::keyMix(graph::keyMix(H, uint64_t(O.Code)),
                                        O.Arg),
                          O.Result);
    }
    Out.push_back(H);
    return Check(M, Sch, R);
  };
  exploreSerial(Workload(I.W.options(), std::move(B)));
  return Out;
}

/// The state-level A/B: copy-on-write resumes must reach, execution by
/// execution, the machine state and results root replay reaches.
void expectEqualCheckDigests(const check::Scenario &S, check::Mutation Mut,
                             const Explorer::Options &Opts,
                             const std::string &Name) {
  std::vector<uint64_t> Root =
      checkDigests(S, Mut, Opts, EnginePath::RootReplay);
  std::vector<uint64_t> Cow = checkDigests(S, Mut, Opts, EnginePath::Auto);
  size_t I = 0;
  while (I != Root.size() && I != Cow.size() && Root[I] == Cow[I])
    ++I;
  EXPECT_TRUE(I == Root.size() && I == Cow.size())
      << Name << ": the state at Check first differs at execution " << I
      << " (root replay ran " << Root.size() << ", copy-on-write "
      << Cow.size() << ")";
}

Task<void> lastReadReader(Env &E, Loc X, Loc Y, Loc Z, Value *Got,
                          Value *Ts) {
  *Got = co_await E.load(X, MemOrder::Relaxed);
  co_await E.load(Y, MemOrder::NonAtomic);
  *Ts = E.M.lastReadTs(E.Tid);
  co_await E.store(Z, 1, MemOrder::Relaxed);
}

Task<void> lastReadWriter(Env &E, Loc X, Loc Z) {
  co_await E.store(X, 1, MemOrder::Relaxed);
  co_await E.load(Z, MemOrder::Relaxed);
}

/// Thread 0 reads x, loads its own non-atomic y and records lastReadTs;
/// thread 1 writes x and then reads thread 0's z, whose choice makes
/// copy-on-write resumes restore thread 0's last read from a snapshot.
/// The check wants the recorded timestamp to name the x message read (x@t
/// holds t): a non-atomic load is no last read, live or restored.
Workload lastReadWorkload(unsigned Workers) {
  Explorer::Options Opts;
  Opts.Workers = Workers;
  return Workload(Opts, []() -> Workload::Body {
    auto Got = std::make_shared<Value>();
    auto Ts = std::make_shared<Value>();
    Workload::Body B{
        [=](Machine &M, Scheduler &S) {
          Loc X = M.alloc("x"), Y = M.alloc("y"), Z = M.alloc("z");
          Env &E0 = S.newThread();
          S.start(E0, lastReadReader(E0, X, Y, Z, Got.get(), Ts.get()));
          Env &E1 = S.newThread();
          S.start(E1, lastReadWriter(E1, X, Z));
        },
        [Got, Ts](Machine &, Scheduler &, Scheduler::RunResult R) {
          return R == Scheduler::RunResult::Done && *Ts == *Got;
        }};
    test::saveSinks(B, {Got, Ts});
    return B;
  });
}

/// The orders of spinWorkload's flag stores and wait.
struct SpinOrders {
  const char *Name;
  MemOrder Flag1, Flag2, Wait;
};

Task<void> spinWriter(Env &E, Loc X, Loc F, SpinOrders O) {
  co_await E.store(X, 1, MemOrder::Relaxed);
  co_await E.store(F, 1, O.Flag1);
  co_await E.store(F, 2, O.Flag2);
}

Task<void> spinReader(Env &E, Loc X, Loc F, MemOrder WaitO, Value *Flag,
                      Value *Data) {
  *Flag = co_await E.spinUntil(F, [](Value V) { return V != 0; }, WaitO);
  *Data = co_await E.load(X, MemOrder::Relaxed);
}

/// Message passing through a wait: the reader blocks in spinUntil(f != 0)
/// until the writer's flag stores, either of which satisfies it, so a
/// snapshot can hold a blocked thread's record and a resume can follow a
/// LoadWhere choice. The check wants the data the flag published, which
/// relaxed orders do not guarantee.
Workload spinWorkload(unsigned Workers, SpinOrders O, ReductionMode Red) {
  Explorer::Options Opts;
  Opts.Workers = Workers;
  Opts.Reduction = Red;
  return Workload(Opts, [O]() -> Workload::Body {
    auto Flag = std::make_shared<Value>();
    auto Data = std::make_shared<Value>();
    Workload::Body B{
        [=](Machine &M, Scheduler &S) {
          *Flag = *Data = 0;
          Loc X = M.alloc("x"), F = M.alloc("f");
          Env &E0 = S.newThread();
          S.start(E0, spinWriter(E0, X, F, O));
          Env &E1 = S.newThread();
          S.start(E1, spinReader(E1, X, F, O.Wait, Flag.get(), Data.get()));
        },
        [Data](Machine &, Scheduler &, Scheduler::RunResult R) {
          return R != Scheduler::RunResult::Done || *Data == 1;
        }};
    test::saveSinks(B, {Flag, Data});
    return B;
  });
}

} // namespace

TEST(ParallelEngineAB, RestoredLastReadNamesTheMessageRead) {
  Explorer::Summary Cow = explore(lastReadWorkload(1));
  EXPECT_EQ(Cow.Violations, 0u) << Cow.str();
  expectEngineAB(+[](unsigned W) { return lastReadWorkload(W); },
                 "last read A/B", true);
}

TEST(ParallelEngineAB, MpLitmus) {
  expectEngineAB(
      +[](unsigned W) {
        return mpWorkload(W, MemOrder::Relaxed, MemOrder::Relaxed);
      },
      "MP rlx A/B", true);
  // SC stores and loads through the copy-on-write engine's snapshots and
  // restores: the data load's op-level snapshots follow the SC flag load,
  // whose SC view join happens after its choice.
  expectEngineAB(
      +[](unsigned W) {
        return mpWorkload(W, MemOrder::SeqCst, MemOrder::SeqCst);
      },
      "MP sc A/B", true);
}

TEST(ParallelEngineAB, BlockedSpinWait) {
  // A seq_cst wait reads at or past the SC view, which the SC store of 1
  // raises: the release store of 2 leaves it two messages to choose from.
  const SpinOrders Orders[] = {
      {"relaxed", MemOrder::Relaxed, MemOrder::Relaxed, MemOrder::Relaxed},
      {"release/acquire", MemOrder::Release, MemOrder::Release,
       MemOrder::Acquire},
      {"seq_cst", MemOrder::SeqCst, MemOrder::Release, MemOrder::SeqCst}};
  for (ReductionMode Red : {ReductionMode::None, ReductionMode::SourceSet})
    for (const SpinOrders &O : Orders) {
      const std::string Name = std::string("spin wait ") + O.Name + " " +
                               reductionModeName(Red);
      auto Make = [=](unsigned W) { return spinWorkload(W, O, Red); };
      expectEngineAB(Make, Name, true);
      Explorer::Summary Cow = explore(Make(1));
      EXPECT_GT(Cow.Tags[static_cast<size_t>(ChoiceKind::LoadWhere)].Choices,
                0u)
          << Name << ": no wait had two satisfying messages";
      EXPECT_EQ(Cow.HasViolation, O.Wait == MemOrder::Relaxed) << Name;
    }
}

TEST(ParallelEngineAB, MsQueueE2Workload) {
  expectEngineAB(+[](unsigned W) { return msQueueWorkload(W); },
                 "MS queue E2 A/B", true);
}

TEST(ParallelEngineAB, ConformancePristineMsQueue) {
  expectEngineAB(
      +[](unsigned W) {
        return conformanceWorkload(check::Lib::MsQueue,
                                   check::Mutation::None, 11, W);
      },
      "conformance ms_queue A/B", true);
}

TEST(ParallelEngineAB, ConformanceMutatedTreiberFirstViolation) {
  expectEngineAB(
      +[](unsigned W) {
        return conformanceWorkload(check::Lib::TreiberStack,
                                   check::Mutation::TreiberRelaxedPopHead,
                                   13, W);
      },
      "conformance treiber mutant A/B", true);
}

TEST(ParallelEngineAB, GeneratedScenarioOfEveryLibraryAndMutant) {
  // Copy-on-write must equal root replay on generated scenarios of every
  // library, pristine and with each seeded mutation on its own library,
  // under both reduction modes, in its summaries and, at one worker, in
  // the state every execution's Check sees. This covers the libraries no
  // hand-written workload reaches, among them the three whose C++ state
  // the harness body saves (treiber_ebr's retire bins, ws_deque's owner
  // shadow and spsc_ring's roles). The hunting shape (2-3 threads of 2-3
  // ops, bound 2) grows trees past a small cap; one worker explores the
  // same capped DFS prefix on either path.
  std::vector<std::pair<check::Lib, check::Mutation>> Cases;
  for (unsigned I = 0; I != check::NumLibs; ++I)
    Cases.push_back({check::allLibs()[I], check::Mutation::None});
  for (unsigned I = 1; I != check::NumMutations; ++I) {
    auto Mut = static_cast<check::Mutation>(I);
    Cases.push_back({check::mutationLib(Mut), Mut});
  }
  // At one worker, both paths run the same executions in the same order,
  // so every Check must also see the same machine state and results.
  for (uint64_t Seed = 1; Seed <= 4; ++Seed)
    for (ReductionMode Red : {ReductionMode::None, ReductionMode::SourceSet})
      for (const auto &Case : Cases) {
        const std::string Name = std::string(check::libName(Case.first)) +
                                 "/" + check::mutationName(Case.second) +
                                 "/" + reductionModeName(Red) + " seed " +
                                 std::to_string(Seed);
        expectEngineAB(
            [=](unsigned W) {
              return conformanceWorkload(Case.first, Case.second, Seed, W,
                                         Red);
            },
            Name, true);
        check::Scenario S = conformanceScenario(Case.first, Seed);
        expectEqualCheckDigests(S, Case.second,
                                check::scenarioOptions(S, 200000, 1, Red),
                                Name);
      }
  for (ReductionMode Red : {ReductionMode::None, ReductionMode::SourceSet})
    for (const auto &Case : Cases) {
      check::Scenario S = check::generateScenario(
          Case.first, check::scenarioSeed(1, Case.first, 0),
          check::GenOptions::hunting());
      const std::string Name = std::string(check::libName(Case.first)) +
                               "/" + check::mutationName(Case.second) + "/" +
                               reductionModeName(Red) + " hunting " + S.str();
      const Explorer::Options Opts = check::scenarioOptions(S, 1500, 1, Red);
      expectCappedEngineAB(check::makeWorkload(S, Case.second, Opts), Name);
      expectEqualCheckDigests(S, Case.second, Opts, Name);
    }
}

TEST(ParallelEngineAB, EachSubtreeStartsWithItsOnlyRootRun) {
  // One engine serves all of a worker's subtrees. Re-seeding it drops the
  // previous subtree's snapshots, so each subtree's first execution runs
  // from the root and every later one resumes from its own snapshots: one
  // root run for the root subtree plus one per donated prefix.
  const std::vector<std::pair<const char *, std::function<Workload(unsigned)>>>
      Cases = {
          {"SB", [](unsigned W) { return sbWorkload(W, false); }},
          {"MP relaxed",
           [](unsigned W) {
             return mpWorkload(W, MemOrder::Relaxed, MemOrder::Relaxed);
           }},
          {"E2 ms_queue", msQueueWorkload},
          {"conformance ms_queue",
           [](unsigned W) {
             return conformanceWorkload(check::Lib::MsQueue,
                                        check::Mutation::None, 11, W);
           }},
          {"treiber mutant, source reduction",
           [](unsigned W) {
             return conformanceWorkload(
                 check::Lib::TreiberStack,
                 check::Mutation::TreiberRelaxedPopHead, 13, W);
           }},
      };
  for (const auto &[Name, Make] : Cases)
    for (unsigned Wk : {1u, 2u, 4u}) {
      Explorer::Summary S = explore(Make(Wk));
      ASSERT_TRUE(S.Exhausted) << Name << " workers=" << Wk;
      // A second worker starts idle, so the first execution donates.
      if (Wk > 1) {
        EXPECT_GT(S.Perf.Donations, 0u) << Name << " workers=" << Wk;
      }
      EXPECT_EQ(S.Perf.RootRuns, S.Perf.Donations + 1)
          << Name << " workers=" << Wk;
      EXPECT_EQ(S.Perf.RootRuns + S.Perf.CowResumes, S.Executions)
          << Name << " workers=" << Wk;
    }
}

//===----------------------------------------------------------------------===//
// Warm kits: a thread keeps its explorer, machine, scheduler and engine from
// call to call (sim/ParallelExplorer.h)
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Fn on a new thread, which has no kit yet, and returns its result.
template <typename F> auto onFreshThread(F Fn) {
  decltype(Fn()) Out;
  std::thread T([&] { Out = Fn(); });
  T.join();
  return Out;
}

/// \p W with every body's client state tagged by the body that saved it. A
/// snapshot slot whose client state another body saved must never reach a
/// body's CowSave: it would be read as the wrong type. Each such slot is
/// counted into \p Foreign (and replaced, so the run goes on).
Workload ownSlotsOnly(Workload W,
                      std::shared_ptr<std::atomic<unsigned>> Foreign) {
  return Workload(W.options(), [W, Foreign] {
    struct Tagged {
      uint64_t Owner;
      std::shared_ptr<void> Inner;
    };
    static std::atomic<uint64_t> NextBody{0};
    Workload::Body B = W.makeBody();
    if (!B.CowSave)
      return B;
    const uint64_t Id = ++NextBody;
    B.CowSave = [Id, Foreign,
                 Save = std::move(B.CowSave)](std::shared_ptr<void> &Slot) {
      if (!Slot)
        Slot = std::make_shared<Tagged>(Tagged{Id, nullptr});
      Tagged &T = *std::static_pointer_cast<Tagged>(Slot);
      if (T.Owner != Id) {
        Foreign->fetch_add(1);
        T = Tagged{Id, nullptr};
      }
      Save(T.Inner);
    };
    B.CowRestore = [Restore = std::move(B.CowRestore)](
                       const std::shared_ptr<void> &Slot) {
      Restore(std::static_pointer_cast<Tagged>(Slot)->Inner);
    };
    return B;
  });
}

/// A warm kit must give a call what a new one gives: the same core and, at
/// one worker, the same engine and explorer counters.
void expectSameCall(const Explorer::Summary &Fresh,
                    const Explorer::Summary &Warm, const std::string &Name) {
  EXPECT_TRUE(Fresh.coreEquals(Warm))
      << Name << "\nfresh: " << Fresh.str() << "\nwarm:  " << Warm.str();
  EXPECT_EQ(Fresh.Perf.Workers, Warm.Perf.Workers) << Name;
  if (Fresh.Perf.Workers != 1)
    return;
  EXPECT_EQ(Fresh.Perf.StepsExecuted, Warm.Perf.StepsExecuted) << Name;
  EXPECT_EQ(Fresh.Perf.StepsLogical, Warm.Perf.StepsLogical) << Name;
  EXPECT_EQ(Fresh.Perf.CowResumes, Warm.Perf.CowResumes) << Name;
  EXPECT_EQ(Fresh.Perf.RootRuns, Warm.Perf.RootRuns) << Name;
  EXPECT_EQ(Fresh.Perf.PeakFrontier, Warm.Perf.PeakFrontier) << Name;
}

/// A generated scenario of the hunting shape, capped at \p Cap executions
/// at one worker.
Workload huntingWorkload(check::Lib L, check::Mutation Mut, ReductionMode Red,
                         uint64_t Cap) {
  check::Scenario S = check::generateScenario(
      L, check::scenarioSeed(1, L, 0), check::GenOptions::hunting());
  return check::makeWorkload(S, Mut, check::scenarioOptions(S, Cap, 1, Red));
}

} // namespace

TEST(WarmKits, ConsecutiveCallsMatchAFreshThread) {
  // Calls of different bodies and options, one- and four-worker calls
  // alternating: scenario, thread count, reduction mode, engine path,
  // preemption bound, StopOnViolation and execution cap all change from
  // one call to the next.
  using check::Lib;
  using check::Mutation;
  const std::vector<std::pair<std::string, std::function<Workload()>>>
      Calls = {
          {"treiber mutant, unreduced, root replay",
           [] {
             Workload W = conformanceWorkload(Lib::TreiberStack,
                                              Mutation::TreiberRelaxedPopHead,
                                              13, 1, ReductionMode::None);
             W.options().Engine = EnginePath::RootReplay;
             return W;
           }},
          {"E2 ms_queue, 4 workers", [] { return msQueueWorkload(4); }},
          {"MP relaxed, stop on violation",
           [] {
             Workload W = mpWorkload(1, MemOrder::Relaxed, MemOrder::Relaxed);
             W.options().StopOnViolation = true;
             return W;
           }},
          {"conformance ms_queue, 4 workers",
           [] {
             return conformanceWorkload(Lib::MsQueue, Mutation::None, 11, 4);
           }},
          {"hunting ms_queue, unreduced, capped",
           [] {
             return huntingWorkload(Lib::MsQueue, Mutation::None,
                                    ReductionMode::None, 1500);
           }},
          {"SB with violations, 4 workers",
           [] { return sbWorkload(4, true); }},
          {"E2 ms_queue, bound 1, capped",
           [] {
             Workload W = msQueueWorkload(1);
             W.options().PreemptionBound = 1;
             W.options().MaxExecutions = 300;
             return W;
           }},
          {"hunting treiber_ebr mutant, capped",
           [] {
             return huntingWorkload(Lib::TreiberEbr,
                                    Mutation::EbrEarlyUnpin,
                                    ReductionMode::SourceSet, 1000);
           }},
          {"conformance exchanger, 4 workers",
           [] {
             return conformanceWorkload(Lib::Exchanger, Mutation::None, 2, 4);
           }},
          {"MP seq_cst", [] {
             return mpWorkload(1, MemOrder::SeqCst, MemOrder::SeqCst);
           }},
      };
  auto Foreign = std::make_shared<std::atomic<unsigned>>(0);
  std::vector<Explorer::Summary> Fresh;
  for (const auto &[Name, Make] : Calls)
    Fresh.push_back(onFreshThread(
        [&, &Make = Make] { return explore(ownSlotsOnly(Make(), Foreign)); }));
  // Twice through the list on one thread, so that every call also follows
  // the calls listed after it.
  std::vector<Explorer::Summary> Warm = onFreshThread([&] {
    std::vector<Explorer::Summary> Out;
    for (int Round = 0; Round != 2; ++Round)
      for (const auto &Call : Calls)
        Out.push_back(explore(ownSlotsOnly(Call.second(), Foreign)));
    return Out;
  });
  ASSERT_EQ(Warm.size(), 2 * Calls.size());
  for (size_t I = 0; I != Warm.size(); ++I)
    expectSameCall(Fresh[I % Calls.size()], Warm[I],
                   Calls[I % Calls.size()].first + ", call " +
                       std::to_string(I));
  EXPECT_EQ(Foreign->load(), 0u)
      << "a body was handed client state another body saved";
  // The list must exercise what it claims to.
  EXPECT_GT(Fresh[0].Violations, 0u);
  EXPECT_EQ(Fresh[0].Perf.CowResumes, 0u);
  EXPECT_EQ(Fresh[2].Violations, 1u);
  EXPECT_EQ(Fresh[4].Executions, 1500u);
  EXPECT_GT(Fresh[4].Perf.CowResumes, 0u);
  EXPECT_EQ(Fresh[6].Executions, 300u);
  EXPECT_EQ(Fresh[7].Executions, 1000u);
  EXPECT_GT(Fresh[7].Violations, 0u);
  EXPECT_EQ(Fresh[1].Perf.Workers, 4u);
}

TEST(WarmKits, AnExploreInsideACheckLeasesAKitOfItsOwn) {
  // Every check of the outer call runs a whole call of its own on the
  // same worker thread, while that worker's kit is in use.
  const Workload Inner = lastReadWorkload(1);
  const Explorer::Summary InnerAlone =
      onFreshThread([&] { return explore(Inner); });
  for (unsigned Workers : {1u, 4u}) {
    const Workload Base = mpWorkload(Workers, MemOrder::Relaxed,
                                     MemOrder::Relaxed);
    auto Nested = std::make_shared<std::vector<Explorer::Summary>>();
    auto Mu = std::make_shared<std::mutex>();
    Workload Outer(Base.options(), [Base, Inner, Nested, Mu] {
      Workload::Body B = Base.makeBody();
      B.Check = [Check = std::move(B.Check), Inner, Nested,
                 Mu](Machine &M, Scheduler &S, Scheduler::RunResult R) {
        Explorer::Summary Sum = explore(Inner);
        {
          std::lock_guard<std::mutex> L(*Mu);
          Nested->push_back(std::move(Sum));
        }
        return Check(M, S, R);
      };
      return B;
    });
    const std::string Name = "workers=" + std::to_string(Workers);
    const Explorer::Summary OuterAlone =
        onFreshThread([&] { return explore(Base); });
    expectSameCall(OuterAlone, explore(Outer), "outer, " + Name);
    ASSERT_EQ(Nested->size(), OuterAlone.Executions) << Name;
    for (const Explorer::Summary &S : *Nested)
      expectSameCall(InnerAlone, S, "inner, " + Name);
  }
}
