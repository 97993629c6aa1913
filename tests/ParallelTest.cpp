//===-- tests/ParallelTest.cpp - Parallel exploration determinism ----------===//
//
// The determinism suite for the parallel exploration engine: for each
// workload (SB / MP / CoRR litmus tests plus the E2 MS-queue configuration)
// the Summary's deterministic core — executions, completed, races,
// violations, Exhausted, MaxDepth, per-tag choice statistics, and the first
// violating trace — must be bit-identical across 1, 2, and 4 workers. Also
// covers counterexample surfacing + replay() reproduction, the Workload
// replay entry point, and the conformance harness (generated scenario
// workloads and the sweep fingerprint, DESIGN.md §7) across worker counts.
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

#include <memory>

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
    // The only client state is the two result sinks, fully rewritten by
    // the fast-forward resume: safe for the copy-on-write engine.
    B.CowSafe = true;
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
    B.CowSafe = true; // sinks are rewritten by the fast-forward resume
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
    B.CowSafe = true; // sinks are rewritten by the fast-forward resume
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
          St->Mon->beginExecution(M);
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
    B.CowSkipFinished = true;
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
// Conformance-harness determinism (DESIGN.md §7)
//===----------------------------------------------------------------------===//

namespace {

/// A generated conformance workload over the pristine (or mutated) library;
/// the Summary core must be worker-count independent like any other
/// workload. Hunting-sized scenarios keep the decision tree comfortably
/// inside the execution budget — a *truncated* tree's explored subset (and
/// hence MaxDepth) is worker-count dependent by design, which is also why
/// SweepReport's fingerprint only folds exhausted scenarios.
Workload conformanceWorkload(check::Lib L, check::Mutation Mut, uint64_t Seed,
                             unsigned Workers) {
  check::GenOptions G;
  G.MaxThreads = 2;
  G.MaxOpsPerThread = 2;
  G.MinPreemptions = G.MaxPreemptions = 1;
  check::Scenario S =
      check::generateScenario(L, check::scenarioSeed(Seed, L, 0), G);
  return check::makeWorkload(S, Mut,
                             check::scenarioOptions(S, 200000, Workers));
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

TEST(ParallelDeterminism, SweepFingerprintAcrossWorkers) {
  // The sweep report's fingerprint folds per-scenario Summary cores (for
  // exhausted trees), so it inherits the engine's determinism: identical
  // across 1/2/4 workers for a fixed seed.
  auto Run = [](unsigned Workers) {
    check::SweepOptions O;
    O.Seed = 5;
    O.ScenariosPerLib = 2;
    O.Workers = Workers;
    O.MaxExecutionsPerScenario = 60000;
    O.Libs = {check::Lib::MsQueue, check::Lib::TreiberStack,
              check::Lib::Exchanger, check::Lib::SpscRing};
    return check::runSweep(O);
  };
  check::SweepReport R1 = Run(1), R2 = Run(2), R4 = Run(4);
  EXPECT_TRUE(R1.clean()) << R1.str();
  EXPECT_EQ(R1.fingerprint(), R2.fingerprint())
      << "serial:\n" << R1.str() << "2 workers:\n" << R2.str();
  EXPECT_EQ(R1.fingerprint(), R4.fingerprint())
      << "serial:\n" << R1.str() << "4 workers:\n" << R4.str();
  EXPECT_EQ(R1.totalExecutions(), R4.totalExecutions());
  EXPECT_EQ(R1.totalViolations(), R4.totalViolations());
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

  // The pretty-printer names each decision with its tag and arity.
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

TEST(ParallelCounterexample, StopOnViolationStopsEarly) {
  // Serial: deterministic truncation at the first violating execution.
  Workload W1 = mpWorkload(1, MemOrder::Relaxed, MemOrder::Relaxed);
  W1.options().StopOnViolation = true;
  auto Sum = explore(W1);
  ASSERT_TRUE(Sum.HasViolation);
  EXPECT_EQ(Sum.Violations, 1u);
  auto Full = explore(mpWorkload(1, MemOrder::Relaxed, MemOrder::Relaxed));
  EXPECT_LT(Sum.Executions, Full.Executions);

  // Parallel: stops soon after any worker hits a violation; whichever one
  // was surfaced, its trace replays to the same failing check.
  Workload W4 = mpWorkload(4, MemOrder::Relaxed, MemOrder::Relaxed);
  W4.options().StopOnViolation = true;
  auto S4 = explore(W4);
  ASSERT_TRUE(S4.HasViolation);
  EXPECT_GE(S4.Violations, 1u);
  EXPECT_FALSE(replay(W4, S4.firstViolationDecisions()).CheckOk);
}

namespace {

/// Reference: the lexicographically least violating decision sequence is
/// what a *full* serial exploration surfaces (DFS first == lex-min, and
/// recordCheck keeps the lex-min across the whole run).
std::vector<unsigned> lexMinViolation(Workload W) {
  W.options().StopOnViolation = false;
  auto Sum = explore(W);
  EXPECT_TRUE(Sum.HasViolation);
  return Sum.firstViolationDecisions();
}

/// Pins the documented StopOnViolation guarantee: the surfaced first
/// violation is the lex-min violating decision sequence, identical at
/// 1/2/4 workers. \p Make builds the workload at a given worker count
/// with a given reduction mode.
void expectLexMinStop(Workload (*Make)(unsigned, ReductionMode),
                      ReductionMode Red, const char *Name) {
  std::vector<unsigned> Ref = lexMinViolation(Make(1, Red));
  ASSERT_FALSE(Ref.empty()) << Name;
  for (unsigned W : {1u, 2u, 4u}) {
    Workload Wl = Make(W, Red);
    Wl.options().StopOnViolation = true;
    auto Sum = explore(Wl);
    ASSERT_TRUE(Sum.HasViolation) << Name << " workers=" << W;
    EXPECT_EQ(Sum.firstViolationDecisions(), Ref)
        << Name << " workers=" << W
        << ": surfaced violation is not the lex-min sequence";
    // And it replays to the same failing check.
    EXPECT_FALSE(replay(Wl, Sum.firstViolationDecisions()).CheckOk)
        << Name << " workers=" << W;
  }
}

} // namespace

TEST(ParallelCounterexample, StopOnViolationIsLexMinAcrossWorkers) {
  expectLexMinStop(
      +[](unsigned W, ReductionMode R) {
        Workload Wl = mpWorkload(W, MemOrder::Relaxed, MemOrder::Relaxed);
        Wl.options().Reduction = R;
        return Wl;
      },
      ReductionMode::None, "MP relaxed, no reduction");
}

TEST(ParallelCounterexample, StopOnViolationIsLexMinUnderSourceReduction) {
  // Same guarantee with source-set reduction enabled: the reduced tree is
  // deterministic, so its lex-min violating sequence is too.
  expectLexMinStop(
      +[](unsigned W, ReductionMode R) {
        Workload Wl = mpWorkload(W, MemOrder::Relaxed, MemOrder::Relaxed);
        Wl.options().Reduction = R;
        return Wl;
      },
      ReductionMode::SourceSet, "MP relaxed, source reduction");
}

TEST(ParallelCounterexample, StopOnViolationIsLexMinOnMutatedConformance) {
  // A violation-dense conformance workload (mutated Treiber stack) under
  // the harness's default source-set reduction — the configuration long
  // sweeps actually run with.
  expectLexMinStop(
      +[](unsigned W, ReductionMode R) {
        Workload Wl = conformanceWorkload(
            check::Lib::TreiberStack, check::Mutation::TreiberRelaxedPopHead,
            13, W);
        Wl.options().Reduction = R;
        return Wl;
      },
      ReductionMode::SourceSet, "treiber mutant, source reduction");
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
  ASSERT_TRUE(Sum.Tags.count("sched"));
  ASSERT_TRUE(Sum.Tags.count("load"));
  EXPECT_GT(Sum.Tags.at("sched").Choices, 0u);
  EXPECT_GE(Sum.Tags.at("sched").MaxArity, 2u);
  EXPECT_GT(Sum.Tags.at("load").AltSum, Sum.Tags.at("load").Choices);
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
void expectEngineAB(Workload (*Make)(unsigned), const char *Name,
                    bool ExpectResumes) {
  for (unsigned Wk : {1u, 2u, 4u}) {
    Explorer::Summary Root =
        exploreWithEngine(Make(Wk), EnginePath::RootReplay);
    Explorer::Summary Cow = exploreWithEngine(Make(Wk), EnginePath::Auto);
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

} // namespace

TEST(ParallelEngineAB, MpLitmusRelaxed) {
  expectEngineAB(
      +[](unsigned W) {
        return mpWorkload(W, MemOrder::Relaxed, MemOrder::Relaxed);
      },
      "MP rlx A/B", true);
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

TEST(ParallelEngineAB, CheckpointResumeMatchesRootReplay) {
  // Reference: an uninterrupted serial root-replay run.
  auto Make = +[](unsigned W) {
    return conformanceWorkload(check::Lib::MsQueue, check::Mutation::None,
                               11, W);
  };
  Explorer::Summary Ref = exploreWithEngine(Make(1), EnginePath::RootReplay);
  ASSERT_TRUE(Ref.Exhausted);
  ASSERT_GE(Ref.Executions, 6u) << "tree too small to interrupt mid-flight";

  // Interrupt a 2-worker cow run mid-flight, then resume the snapshot at
  // 4 workers (still cow): the stitched summary core must equal the
  // uninterrupted root-replay reference bit for bit.
  Workload Seg1W = Make(2);
  Seg1W.options().Engine = EnginePath::Auto;
  ExploreControl Ctl;
  Ctl.InterruptAtExecs = Ref.Executions / 3;
  ExploreResult Seg1 = exploreResumable(Seg1W, Ctl);
  ASSERT_TRUE(Seg1.Interrupted) << "tree exhausted before the tripwire";
  ASSERT_FALSE(Seg1.Snapshot.empty());

  Workload Seg2W = Make(4);
  Seg2W.options().Engine = EnginePath::Auto;
  ExploreResult Seg2 =
      exploreResumable(Seg2W, ExploreControl{}, &Seg1.Snapshot);
  EXPECT_FALSE(Seg2.Interrupted);
  EXPECT_TRUE(Ref.coreEquals(Seg2.Sum))
      << "root-replay: " << Ref.str() << "\nresumed cow: " << Seg2.Sum.str();
}
