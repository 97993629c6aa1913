//===-- tests/ConformanceTest.cpp - Conformance harness end-to-end --------===//
//
// The Lincheck-style harness's own test suite (DESIGN.md §7):
//  * generator determinism and scenario well-formedness;
//  * corpus-entry serialization round-trips;
//  * a pristine sweep across every library finds no violations;
//  * every seeded mutant is killed, each through the intended oracle stage
//    (race detector, consistency axioms, INJ prescan, observed results);
//  * the shrinker strictly reduces and its output still fails on replay;
//  * diagnoseTrace canonicalizes traces into divergence-free replays;
//  * the verdict memo's key covers every input the verdict reads, and the
//    memoised verdict equals the uncached one on every execution.
//
//===----------------------------------------------------------------------===//

#include "check/Conformance.h"
#include "check/ScenarioGen.h"
#include "rmc/Machine.h"
#include "sim/Explorer.h"
#include "spec/Linearization.h"
#include "spec/SpecMonitor.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

using namespace compass;
using namespace compass::check;

namespace {

/// Small-but-real hunt budget: every mutant dies within a few scenarios.
MutationOptions quickHunt() {
  MutationOptions O;
  O.MaxScenarios = 60;
  O.MaxExecutionsPerScenario = 150000;
  return O;
}

} // namespace

//===----------------------------------------------------------------------===//
// Scenario generation and serialization
//===----------------------------------------------------------------------===//

TEST(ScenarioGen, DeterministicForFixedSeed) {
  for (unsigned L = 0; L != NumLibs; ++L) {
    Lib Li = allLibs()[L];
    Scenario A = generateScenario(Li, scenarioSeed(7, Li, 3));
    Scenario B = generateScenario(Li, scenarioSeed(7, Li, 3));
    EXPECT_EQ(A.str(), B.str()) << libName(Li);
    Scenario C = generateScenario(Li, scenarioSeed(7, Li, 4));
    // Different index gives an independent stream (usually a new shape).
    EXPECT_EQ(C.L, Li);
  }
}

TEST(ScenarioGen, ScenariosAreWellFormed) {
  for (unsigned L = 0; L != NumLibs; ++L) {
    Lib Li = allLibs()[L];
    for (unsigned I = 0; I != 50; ++I) {
      Scenario S = generateScenario(Li, scenarioSeed(11, Li, I));
      ASSERT_GE(S.Threads.size(), 1u) << S.str();
      ASSERT_GE(S.numOps(), 1u) << S.str();
      ASSERT_GE(S.PreemptionBound, 1u);
      unsigned Producers = 0;
      for (const auto &T : S.Threads)
        for (const Op &O : T) {
          if (O.Code == OpCode::Enq || O.Code == OpCode::Push ||
              O.Code == OpCode::Exchange) {
            EXPECT_NE(O.Arg, 0u) << S.str();
            ++Producers;
          }
          switch (Li) {
          case Lib::MsQueue:
          case Lib::HwQueue:
            EXPECT_TRUE(O.Code == OpCode::Enq || O.Code == OpCode::Deq);
            break;
          case Lib::TreiberStack:
          case Lib::ElimStack:
          case Lib::TreiberEbr:
            EXPECT_TRUE(O.Code == OpCode::Push || O.Code == OpCode::Pop);
            break;
          case Lib::Exchanger:
            EXPECT_EQ(O.Code, OpCode::Exchange);
            break;
          case Lib::SpscRing:
            EXPECT_TRUE(O.Code == OpCode::Enq || O.Code == OpCode::Deq);
            break;
          case Lib::WsDeque:
            EXPECT_TRUE(O.Code == OpCode::Push || O.Code == OpCode::Take ||
                        O.Code == OpCode::Steal);
            break;
          }
        }
      if (Li != Lib::Exchanger) {
        EXPECT_GE(Producers, 1u) << S.str();
      }
      if (Li == Lib::SpscRing) {
        ASSERT_EQ(S.Threads.size(), 2u);
        ASSERT_GE(S.Capacity, 1u);
        for (const Op &O : S.Threads[0])
          EXPECT_EQ(O.Code, OpCode::Enq);
        for (const Op &O : S.Threads[1])
          EXPECT_EQ(O.Code, OpCode::Deq);
      }
      if (Li == Lib::WsDeque) {
        unsigned Pushes = 0;
        for (const Op &O : S.Threads[0]) {
          EXPECT_NE(O.Code, OpCode::Steal) << "owner thread steals";
          Pushes += O.Code == OpCode::Push;
        }
        EXPECT_GE(S.Capacity, Pushes) << S.str();
        for (size_t T = 1; T != S.Threads.size(); ++T)
          for (const Op &O : S.Threads[T])
            EXPECT_EQ(O.Code, OpCode::Steal) << "thief does owner ops";
      }
    }
  }
}

TEST(ScenarioGen, ProducerValuesAreDistinct) {
  Scenario S = generateScenario(Lib::MsQueue, scenarioSeed(3, Lib::MsQueue, 0),
                                GenOptions::hunting());
  std::set<rmc::Value> Seen;
  for (const auto &T : S.Threads)
    for (const Op &O : T)
      if (O.Code == OpCode::Enq) {
        EXPECT_TRUE(Seen.insert(O.Arg).second) << "duplicate " << O.Arg;
      }
}

TEST(ScenarioText, NamesRoundTrip) {
  for (unsigned I = 0; I != NumLibs; ++I) {
    Lib L = allLibs()[I], Out;
    ASSERT_TRUE(parseLib(libName(L), Out));
    EXPECT_EQ(Out, L);
  }
  for (unsigned I = 0; I != NumMutations; ++I) {
    Mutation M = static_cast<Mutation>(I), Out;
    ASSERT_TRUE(parseMutation(mutationName(M), Out));
    EXPECT_EQ(Out, M);
  }
  Lib L;
  EXPECT_FALSE(parseLib("no_such_lib", L));
}

TEST(ScenarioText, CorpusEntryRoundTrips) {
  CorpusEntry E;
  E.S = generateScenario(Lib::TreiberStack,
                         scenarioSeed(5, Lib::TreiberStack, 2));
  E.Mut = Mutation::TreiberPopBelowTop;
  E.Decisions = {0, 1, 0, 2, 3};
  E.Note = "round-trip test";
  std::string Text = formatCorpusEntry(E);
  CorpusEntry Back;
  std::string Err;
  ASSERT_TRUE(parseCorpusEntry(Text, Back, Err)) << Err;
  EXPECT_EQ(Back.S.str(), E.S.str());
  EXPECT_EQ(Back.S.Seed, E.S.Seed);
  EXPECT_EQ(Back.Mut, E.Mut);
  EXPECT_EQ(Back.Decisions, E.Decisions);
  EXPECT_EQ(Back.Note, E.Note);

  // Input that would crash a replay or silently replay something else is
  // rejected, and the message names the key at fault.
  const std::pair<const char *, const char *> Rejected[] = {
      {"lib=ms_queue\nbogus=1\n", "bogus"},
      // Numbers are unsigned decimals that fit their field.
      {"lib=ms_queue\npb=-1\nthread=enq:1\n", "pb"},
      {"lib=ms_queue\npb= 1\nthread=enq:1\n", "pb"},
      {"lib=ms_queue\npb=+1\nthread=enq:1\n", "pb"},
      {"lib=ms_queue\npb=4294967296\nthread=enq:1\n", "pb"},
      {"lib=hw_queue\ncap=0x10\nthread=enq:1\n", "cap"},
      {"lib=ms_queue\nseed=18446744073709551616\nthread=enq:1\n", "seed"},
      {"lib=ms_queue\nthread=enq:-1\n", "thread"},
      {"lib=ms_queue\nthread=enq:1\ndecisions=0,4294967296,1\n",
       "decisions"},
      {"lib=ms_queue\nthread=enq:1\ndecisions=0,-1\n", "decisions"},
      // The mutation and the ops belong to the library.
      {"lib=ms_queue\nmut=treiber_pop_below_top\nthread=enq:1\n", "mut"},
      {"mut=treiber_pop_below_top\nlib=ms_queue\nthread=enq:1\n", "mut"},
      {"lib=ms_queue\nthread=push:1\n", "thread"},
      {"lib=ws_deque\ncap=2\nthread=push:1,pop\n", "thread"},
      // The capacity fits the ops: fewer slots than enqs or pushes would
      // abort the replay, and a ring of capacity 0 is always full.
      {"lib=hw_queue\ncap=0\nthread=enq:1\nthread=deq\n", "cap"},
      {"lib=ws_deque\ncap=1\nthread=push:1,push:2,push:3,take\n", "cap"},
      {"lib=spsc_ring\ncap=0\nthread=enq:1\nthread=deq\n", "cap"},
  };
  for (const auto &[Text, Key] : Rejected) {
    CorpusEntry Bad;
    EXPECT_FALSE(parseCorpusEntry(Text, Bad, Err)) << Text;
    EXPECT_NE(Err.find(Key), std::string::npos)
        << "the error for\n" << Text << "names no '" << Key << "': " << Err;
  }
  // The largest values that fit are still accepted.
  CorpusEntry Max;
  ASSERT_TRUE(parseCorpusEntry("lib=ms_queue\nseed=18446744073709551615\n"
                               "pb=4294967295\nthread=enq:1\n"
                               "decisions=4294967295\n",
                               Max, Err))
      << Err;
  EXPECT_EQ(Max.S.Seed, ~0ull);
  EXPECT_EQ(Max.S.PreemptionBound, ~0u);
  EXPECT_EQ(Max.Decisions, std::vector<unsigned>{~0u});
}

//===----------------------------------------------------------------------===//
// Pristine sweep
//===----------------------------------------------------------------------===//

TEST(ConformanceSweep, AllLibrariesClean) {
  SweepOptions O;
  O.ScenariosPerLib = 4;
  O.MaxExecutionsPerScenario = 40000;
  SweepReport Rep = runSweep(O);
  EXPECT_TRUE(Rep.clean()) << Rep.str();
  ASSERT_EQ(Rep.PerLib.size(), NumLibs);
  for (const LibSweepStats &St : Rep.PerLib) {
    EXPECT_EQ(St.Violations, 0u) << libName(St.L) << ": " << St.FirstBad;
    EXPECT_EQ(St.Races, 0u) << libName(St.L);
    EXPECT_EQ(St.Deadlocks, 0u) << libName(St.L);
    EXPECT_GT(St.Executions, 0u) << libName(St.L);
  }
  // Report renderers.
  EXPECT_NE(Rep.str().find("fingerprint"), std::string::npos);
  std::string J = Rep.json();
  EXPECT_EQ(J.front(), '{');
  EXPECT_EQ(J.back(), '}');
  EXPECT_NE(J.find("\"fingerprint\":"), std::string::npos);
}

TEST(ConformanceSweep, FingerprintIsSeedSensitive) {
  SweepOptions O;
  O.ScenariosPerLib = 2;
  O.MaxExecutionsPerScenario = 20000;
  O.Libs = {Lib::MsQueue, Lib::SpscRing};
  SweepReport A = runSweep(O);
  O.Seed = 2;
  SweepReport B = runSweep(O);
  EXPECT_NE(A.fingerprint(), B.fingerprint());
  O.Seed = 1;
  SweepReport C = runSweep(O);
  EXPECT_EQ(A.fingerprint(), C.fingerprint());
}

//===----------------------------------------------------------------------===//
// Spec strengths: the paper's §3.2 separation, live
//===----------------------------------------------------------------------===//

namespace {

sim::Task<void> runOps(ContainerAdapter &A, std::vector<Op> Ops, sim::Env &E) {
  for (Op O : Ops) {
    auto T = A.apply(E, O);
    co_await T;
  }
}

/// The cross-thread-enqueue scenario that first exhibited the separation
/// live (seed 1, scenario #5 of the 500-scenarios-per-library sweep):
/// `hw_queue pb=2 cap=10 T0[enq:1,enq:2,deq] T1[enq:3,deq,deq]
/// T2[enq:4,enq:5,enq:6]`.
Scenario hwSeparationScenario() {
  Scenario S;
  S.L = Lib::HwQueue;
  S.PreemptionBound = 2;
  S.Capacity = 10;
  S.Threads = {{{OpCode::Enq, 1}, {OpCode::Enq, 2}, {OpCode::Deq, 0}},
               {{OpCode::Enq, 3}, {OpCode::Deq, 0}, {OpCode::Deq, 0}},
               {{OpCode::Enq, 4}, {OpCode::Enq, 5}, {OpCode::Enq, 6}}};
  return S;
}

} // namespace

TEST(SpecStrength, PerLibraryMapping) {
  // Only the relaxed Herlihy-Wing queue is LAT_hb-only (paper §3.2 /
  // EXPERIMENTS.md E2); everything else must produce a witness.
  EXPECT_EQ(libStrength(Lib::HwQueue), SpecStrength::HbOnly);
  for (unsigned I = 0; I != NumLibs; ++I)
    if (allLibs()[I] != Lib::HwQueue) {
      EXPECT_EQ(libStrength(allLibs()[I]), SpecStrength::Linearizable)
          << libName(allLibs()[I]);
    }
}

TEST(SpecStrength, HwQueueSeparationIsLive) {
  // Both halves of the separation on the same scenario. (a) At its
  // *specified* strength — the LAT_hb graph axioms plus observed results —
  // the pristine HW queue is clean:
  Scenario S = hwSeparationScenario();
  std::vector<unsigned> Trace;
  EXPECT_FALSE(scenarioFails(S, Mutation::None, 20000, Trace))
      << "hw_queue violates its own LAT_hb spec";

  // (b) ...but some execution of the very same tree has *no*
  // linearizable-history witness, so checking hw_queue at LAT_hist_hb
  // strength would flag the paper's own expected behaviour as a bug
  // (which is what the HbOnly strength in libStrength exists to prevent).
  bool FoundWitnessless = false;
  sim::Explorer Ex{scenarioOptions(S, 20000, 1)};
  while (!FoundWitnessless && Ex.beginExecution()) {
    rmc::Machine M(Ex);
    sim::Scheduler Sch(M, Ex);
    Sch.setPreemptionBound(Ex.options().PreemptionBound);
    spec::SpecMonitor Mon;
    ContainerAdapter A(S, Mutation::None, M, Mon);
    for (const auto &T : S.Threads) {
      sim::Env &E = Sch.newThread();
      Sch.start(E, runOps(A, T, E));
    }
    auto R = Sch.run(Ex.options().MaxStepsPerExec);
    if (R == sim::Scheduler::RunResult::Done) {
      spec::LinearizationResult LR = spec::findLinearization(
          Mon.graph(), A.objId(), spec::SeqSpec::Queue,
          spec::LinearizeLimits{200000});
      if (!LR.Found && !LR.Aborted)
        FoundWitnessless = true;
    }
    Ex.endExecution(R);
  }
  EXPECT_TRUE(FoundWitnessless)
      << "no witness-less hw_queue execution found; if the implementation "
         "got stronger, HbOnly in libStrength may no longer be needed";
}

//===----------------------------------------------------------------------===//
// Mutation testing: every mutant must die, via the intended oracle stage
//===----------------------------------------------------------------------===//

namespace {

/// Hunts \p Mut and asserts it was killed; returns the report.
MutantReport expectKilled(Mutation Mut) {
  MutantReport R = huntMutant(Mut, quickHunt());
  EXPECT_TRUE(R.Killed) << mutationName(Mut) << " survived "
                        << R.ScenariosTried << " scenarios ("
                        << mutationDescription(Mut) << ")";
  if (R.Killed) {
    // The shrunk counterexample must still fail on replay.
    EXPECT_FALSE(R.Shrunk.V.Ok)
        << mutationName(Mut) << ": shrunk trace no longer fails";
    EXPECT_GE(R.Shrunk.OpsAfter, 1u);
    EXPECT_LE(R.Shrunk.OpsAfter, R.Shrunk.OpsBefore);
  }
  return R;
}

} // namespace

TEST(MutationKill, MsQueueRelaxedPublish) {
  MutantReport R = expectKilled(Mutation::MsQueueRelaxedPublish);
  // A relaxed linking CAS loses the element handoff: the race detector
  // fires on the node's nonatomic fields.
  EXPECT_EQ(R.Rule, "RACE") << R.str();
}

TEST(MutationKill, MsQueueSkipDeq) {
  MutantReport R = expectKilled(Mutation::MsQueueSkipDeq);
  // Skipping the head's successor breaks FIFO order / loses elements:
  // caught by the queue axioms or the witness search.
  EXPECT_TRUE(R.Rule == "CONSISTENCY" || R.Rule == "WITNESS") << R.str();
}

TEST(MutationKill, TreiberRelaxedPopHead) {
  MutantReport R = expectKilled(Mutation::TreiberRelaxedPopHead);
  EXPECT_EQ(R.Rule, "RACE") << R.str();
}

TEST(MutationKill, TreiberPopBelowTop) {
  MutantReport R = expectKilled(Mutation::TreiberPopBelowTop);
  // Popping below the top is a pure LIFO violation (the acquire CAS still
  // synchronizes, so there is no race to hide behind).
  EXPECT_TRUE(R.Rule == "CONSISTENCY" || R.Rule == "WITNESS") << R.str();
}

TEST(MutationKill, ExchangerEchoValue) {
  MutantReport R = expectKilled(Mutation::ExchangerEchoValue);
  // The graph records the true crossing; only the observed-result check
  // can see the lie.
  EXPECT_EQ(R.Rule, "OBS") << R.str();
}

TEST(MutationKill, SpscRelaxedTailPublish) {
  MutantReport R = expectKilled(Mutation::SpscRelaxedTailPublish);
  EXPECT_EQ(R.Rule, "RACE") << R.str();
}

TEST(MutationKill, WsDequeTakeNoFence) {
  MutantReport R = expectKilled(Mutation::WsDequeTakeNoFence);
  // Without the SC fence the owner's take re-takes a stolen element: the
  // same push is consumed twice, caught by the injectivity prescan.
  EXPECT_TRUE(R.Rule == "INJ" || R.Rule == "CONSISTENCY") << R.str();
}

TEST(MutationKill, EbrSkipGracePeriod) {
  // A reclamation bug, not a spec bug: the event graph stays
  // LAT-consistent, so only the machine's lifecycle tracking can see it —
  // the free lands while a retire-time reader is still pinned.
  MutantReport R = expectKilled(Mutation::EbrSkipGracePeriod);
  EXPECT_EQ(R.Rule, "PREMATURE_FREE") << R.str();
}

TEST(MutationKill, EbrEarlyUnpin) {
  // The reader leaves the critical section before dereferencing; the
  // node is freed under it and the access itself faults.
  MutantReport R = expectKilled(Mutation::EbrEarlyUnpin);
  EXPECT_EQ(R.Rule, "USE_AFTER_RETIRE") << R.str();
}

TEST(MutationKill, RunMutationTestsCoversAllMutants) {
  MutationOptions O = quickHunt();
  O.Shrink = false; // Keep this aggregate run fast; kills only.
  std::vector<MutantReport> Reps = runMutationTests(O);
  ASSERT_EQ(Reps.size(), NumMutations - 1);
  for (const MutantReport &R : Reps)
    EXPECT_TRUE(R.Killed) << R.str();
}

//===----------------------------------------------------------------------===//
// Shrinker
//===----------------------------------------------------------------------===//

TEST(Shrinker, StrictlyReducesAndStillFails) {
  // The MS-queue publish mutant dies in a busy generated scenario; the
  // shrinker must cut it down to the 2-op essence and the result must
  // still fail when replayed from scratch.
  MutantReport R = huntMutant(Mutation::MsQueueRelaxedPublish, quickHunt());
  ASSERT_TRUE(R.Killed);
  const ShrinkResult &S = R.Shrunk;
  EXPECT_TRUE(S.reducedOps()) << S.str();
  EXPECT_TRUE(S.reducedDecisions()) << S.str();
  EXPECT_LE(S.OpsAfter, 3u) << S.Min.str();
  EXPECT_GT(S.CandidatesTried, 0u);

  // Independent re-validation: explore the minimized scenario afresh.
  std::vector<unsigned> Trace;
  EXPECT_TRUE(scenarioFails(S.Min, Mutation::MsQueueRelaxedPublish, 100000,
                            Trace))
      << "shrunk scenario no longer fails: " << S.Min.str();

  // And the pristine library passes the minimized scenario.
  std::vector<unsigned> Unused;
  EXPECT_FALSE(scenarioFails(S.Min, Mutation::None, 100000, Unused))
      << "pristine library fails the shrunk scenario";
}

TEST(Shrinker, MinimizedTraceReplaysDivergenceFree) {
  MutantReport R = huntMutant(Mutation::ExchangerEchoValue, quickHunt());
  ASSERT_TRUE(R.Killed);
  TraceDiagnosis D =
      diagnoseTrace(R.Shrunk.Min, Mutation::ExchangerEchoValue,
                    scenarioOptions(R.Shrunk.Min, 1, 1), R.Shrunk.Decisions);
  EXPECT_TRUE(D.failing());
  EXPECT_FALSE(D.V.Ok);
  // Replaying the canonical executed trace reproduces without divergence.
  TraceDiagnosis D2 =
      diagnoseTrace(R.Shrunk.Min, Mutation::ExchangerEchoValue,
                    scenarioOptions(R.Shrunk.Min, 1, 1), D.Executed);
  EXPECT_TRUE(D2.failing());
  EXPECT_FALSE(D2.RR.Diverged);
  EXPECT_EQ(D2.Executed, D.Executed);
}

//===----------------------------------------------------------------------===//
// Verdict plumbing
//===----------------------------------------------------------------------===//

TEST(VerdictTest, StrAndFail) {
  Verdict V;
  EXPECT_TRUE(V.Ok);
  EXPECT_EQ(V.str(), "ok");
  Verdict F = Verdict::fail("OBS", "thread 0 lied");
  EXPECT_FALSE(F.Ok);
  EXPECT_EQ(F.str(), "OBS: thread 0 lied");
}

namespace {

/// Asserts the full reclamation-verdict pipeline on a hand-built
/// scenario: exploration against \p Mut fails with verdict rule
/// \p WantRule, the trace replays divergence-free without any reduction
/// in the way (replay never prunes), and the verdict text survives
/// JSON encoding through the sweep-report path.
void expectReclamationVerdict(const Scenario &S, Mutation Mut,
                              const char *WantRule,
                              const char *WantDetail) {
  std::vector<unsigned> Trace;
  ASSERT_TRUE(scenarioFails(S, Mut, 200000, Trace))
      << mutationName(Mut) << " not killed by " << S.str();
  TraceDiagnosis D =
      diagnoseTrace(S, Mut, scenarioOptions(S, 1, 1), Trace);
  ASSERT_TRUE(D.failing()) << S.str();
  EXPECT_FALSE(D.RR.Diverged) << "reclamation trace diverged on replay";
  EXPECT_EQ(D.V.Rule, WantRule) << D.V.str();
  EXPECT_NE(D.V.Detail.find(WantDetail), std::string::npos) << D.V.str();

  // The canonical executed trace replays to the same verdict.
  TraceDiagnosis D2 =
      diagnoseTrace(S, Mut, scenarioOptions(S, 1, 1), D.Executed);
  ASSERT_TRUE(D2.failing());
  EXPECT_FALSE(D2.RR.Diverged);
  EXPECT_EQ(D2.V.Rule, WantRule);

  // Verdict text JSON-encodes via the sweep-report first_bad field.
  SweepReport Rep;
  LibSweepStats St;
  St.L = Lib::TreiberEbr;
  St.Violations = 1;
  St.FirstBadScenario = 0;
  St.FirstBad = S.str() + " -> " + D.V.str();
  Rep.PerLib.push_back(St);
  std::string J = Rep.json();
  EXPECT_EQ(J.front(), '{');
  EXPECT_EQ(J.back(), '}');
  EXPECT_NE(J.find(WantRule), std::string::npos) << J;
  EXPECT_NE(J.find("\"first_bad\":"), std::string::npos) << J;
}

} // namespace

TEST(VerdictTest, PrematureFreeVerdictPipeline) {
  // The shrunk corpus shape for ebr_skip_grace_period: a popper retires
  // and drains while the pusher is still pinned.
  Scenario S;
  S.L = Lib::TreiberEbr;
  S.PreemptionBound = 2;
  S.Capacity = 6;
  S.Threads = {{{OpCode::Pop, 0}}, {{OpCode::Push, 1}}};
  expectReclamationVerdict(S, Mutation::EbrSkipGracePeriod,
                           "PREMATURE_FREE", "premature free");
}

TEST(VerdictTest, UseAfterRetireVerdictPipeline) {
  // The shrunk corpus shape for ebr_early_unpin: an unpinned reader's
  // head snapshot is popped, retired, and freed under it.
  Scenario S;
  S.L = Lib::TreiberEbr;
  S.PreemptionBound = 2;
  S.Capacity = 6;
  S.Threads = {{{OpCode::Push, 1}, {OpCode::Pop, 0}}, {{OpCode::Pop, 0}}};
  expectReclamationVerdict(S, Mutation::EbrEarlyUnpin, "USE_AFTER_RETIRE",
                           "use after retire");
}

TEST(VerdictTest, DiagnoseReportsStructuredRule) {
  // Hand-built scenario: the Treiber below-top mutant with a pop racing
  // two pushes violates LIFO deterministically somewhere in the tree.
  Scenario S;
  S.L = Lib::TreiberStack;
  S.PreemptionBound = 2;
  S.Threads = {{{OpCode::Pop, 0}},
               {{OpCode::Push, 1}, {OpCode::Push, 2}}};
  std::vector<unsigned> Trace;
  ASSERT_TRUE(
      scenarioFails(S, Mutation::TreiberPopBelowTop, 200000, Trace));
  TraceDiagnosis D = diagnoseTrace(S, Mutation::TreiberPopBelowTop,
                                   scenarioOptions(S, 1, 1), Trace);
  ASSERT_TRUE(D.failing());
  EXPECT_FALSE(D.V.Rule.empty());
  EXPECT_FALSE(D.V.Detail.empty());
  EXPECT_NE(D.V.str(), "ok");
}

//===----------------------------------------------------------------------===//
// The verdict memo
//===----------------------------------------------------------------------===//

namespace {

/// One verdictKey input, built from parts so a test can change one of them.
struct KeyInput {
  std::vector<std::pair<graph::EventId, graph::Event>> Events; ///< Committed.
  unsigned Size = 0; ///< Ids past the last event are left reserved.
  std::vector<graph::SoEdge> So;
  std::vector<std::vector<Observed>> Results;

  /// verdictKey of the input or, with \p Memo, the verdict memo's key:
  /// the graph's incremental key words followed by memoKeyTail's tail.
  std::vector<uint64_t> key(bool Memo = false) const {
    graph::EventGraph G;
    for (const auto &[Id, E] : Events)
      G.addRaw(Id, E); // Skipped ids become retracted.
    while (G.size() < Size)
      G.reserve();
    for (graph::SoEdge Edge : So)
      G.addSo(Edge.From, Edge.To);
    std::vector<uint64_t> Key;
    if (!Memo) {
      verdictKey(G, Results, Key);
      return Key;
    }
    std::vector<uint64_t> Tail;
    memoKeyTail(G, Results, Tail);
    Key = G.keyWords();
    Key.insert(Key.end(), Tail.begin(), Tail.end());
    return Key;
  }
};

graph::Event keyEvent(graph::OpKind Kind, rmc::Value V1, unsigned Thread,
                      uint32_t CommitIdx, std::vector<graph::EventId> View) {
  graph::Event E;
  E.Kind = Kind;
  E.V1 = V1;
  E.Thread = Thread;
  E.CommitIdx = CommitIdx;
  for (graph::EventId Id : View)
    E.LogView.insert(Id);
  return E;
}

/// #0 Enq(1) by thread 0, #1 retracted, #2 Deq(1) by thread 1 matched to
/// #0, and both threads' observed results.
KeyInput keyBase() {
  KeyInput In;
  In.Events = {{0, keyEvent(graph::OpKind::Enq, 1, 0, 0, {0})},
               {2, keyEvent(graph::OpKind::DeqOk, 1, 1, 1, {0, 2})}};
  In.Size = 3;
  In.So = {{0, 2}};
  In.Results = {{{OpCode::Enq, 1, 1}}, {{OpCode::Deq, 0, 1}}};
  return In;
}

} // namespace

TEST(VerdictMemo, KeyCoversEveryCheckedInput) {
  // Both the reference verdictKey and the memo's incremental key.
  for (bool Memo : {false, true}) {
    SCOPED_TRACE(Memo ? "incremental key" : "verdictKey");
    const std::vector<uint64_t> Base = keyBase().key(Memo);
    ASSERT_EQ(keyBase().key(Memo), Base);
    using Tweak = void (*)(KeyInput &);
    const std::pair<const char *, Tweak> Changes[] = {
        {"kind", [](KeyInput &In) {
           In.Events[1].second.Kind = graph::OpKind::DeqEmpty;
         }},
        {"V1", [](KeyInput &In) { In.Events[1].second.V1 = 2; }},
        {"V2", [](KeyInput &In) { In.Events[1].second.V2 = 7; }},
        {"ObjId", [](KeyInput &In) { In.Events[1].second.ObjId = 1; }},
        {"Thread", [](KeyInput &In) { In.Events[1].second.Thread = 0; }},
        {"CommitIdx", [](KeyInput &In) { In.Events[1].second.CommitIdx = 5; }},
        {"logical view", [](KeyInput &In) {
           In.Events[1].second.LogView.erase(0);
         }},
        {"so edge", [](KeyInput &In) { In.So = {{2, 0}}; }},
        {"committed state", [](KeyInput &In) {
           In.Events.push_back({1, keyEvent(graph::OpKind::Enq, 3, 0, 2, {1})});
         }},
        {"G.size()", [](KeyInput &In) { In.Size = 4; }},
        {"Observed code", [](KeyInput &In) {
           In.Results[1][0].Code = OpCode::Pop;
         }},
        {"Observed arg", [](KeyInput &In) { In.Results[0][0].Arg = 2; }},
        {"Observed result", [](KeyInput &In) {
           In.Results[1][0].Result = graph::EmptyVal;
         }},
    };
    for (const auto &[What, Change] : Changes) {
      KeyInput In = keyBase();
      Change(In);
      EXPECT_NE(In.key(Memo), Base) << "changing the " << What
                                    << " leaves the key unchanged";
    }

    // Trailing zero words of a logical view mean nothing.
    KeyInput In = keyBase();
    In.Events[1].second.LogView.insert(200);
    In.Events[1].second.LogView.erase(200);
    EXPECT_EQ(In.key(Memo), Base);
  }
}

namespace {

/// What one differential exploration compared.
struct MemoTally {
  uint64_t Done = 0;
  uint64_t Failures = 0; ///< Failing uncached verdicts.
  uint64_t Aborts = 0;   ///< Uncached verdicts whose search aborted.
  uint64_t Hits = 0;     ///< Done executions answered from the memo.
  uint64_t LinAborts = 0; ///< Aborts the body counted (SharedLinAborts).
};

/// Explores \p S under \p Mut with the instrumented body's Check wrapped:
/// after each Done execution the wrapper recomputes the uncached verdict
/// and requires the memoised one (RunState::LastVerdict) to equal it.
/// \p Limits is set before exploring.
MemoTally exploreMemoAgainstUncached(const Scenario &S, Mutation Mut,
                                     sim::ReductionMode Red,
                                     spec::LinearizeLimits Limits = {200000}) {
  Instrumented I = makeInstrumented(S, Mut, scenarioOptions(S, 3000, 1, Red));
  RunState &St = *I.State;
  St.Limits = Limits;
  St.SharedLinAborts = std::make_shared<std::atomic<uint64_t>>(0);
  MemoTally T;
  sim::Workload::Body B = I.W.makeBody();
  B.Check = [&, Check = std::move(B.Check)](rmc::Machine &M,
                                            sim::Scheduler &Sch,
                                            sim::Scheduler::RunResult R) {
    bool Ok = Check(M, Sch, R);
    if (R != sim::Scheduler::RunResult::Done)
      return Ok;
    // A fresh derived graph, against the memo path's retained one.
    graph::EventGraph Fresh;
    Verdict U = St.A->verdict(*St.Mon, St.Results, St.Limits, Fresh);
    const Verdict &V = St.LastVerdict;
    EXPECT_EQ(V.Ok, U.Ok) << S.str() << " -> " << U.str();
    EXPECT_EQ(V.Rule, U.Rule) << S.str();
    EXPECT_EQ(V.Detail, U.Detail) << S.str();
    EXPECT_EQ(V.LinAborted, U.LinAborted) << S.str();
    ++T.Done;
    T.Failures += !U.Ok;
    T.Aborts += U.LinAborted;
    return Ok;
  };
  sim::exploreSerial(sim::Workload(I.W.options(), std::move(B)));
  T.Hits = St.MemoHits;
  T.LinAborts = St.SharedLinAborts->load();
  EXPECT_LE(T.Hits, T.Done) << S.str();
  return T;
}

/// Small generated shapes: 2 threads, at most 3 ops each, bound 1-2.
Scenario memoScenario(Lib L, uint64_t Seed) {
  GenOptions G;
  G.MaxThreads = 2;
  G.MaxOpsPerThread = 3;
  G.MinPreemptions = 1;
  G.MaxPreemptions = 2;
  return generateScenario(L, scenarioSeed(Seed, L, 0), G);
}

} // namespace

TEST(VerdictMemo, MemoisedVerdictEqualsUncachedOnEveryExecution) {
  std::vector<std::pair<Lib, Mutation>> Cases;
  for (unsigned I = 0; I != NumLibs; ++I)
    Cases.push_back({allLibs()[I], Mutation::None});
  for (unsigned I = 1; I != NumMutations; ++I) {
    auto Mut = static_cast<Mutation>(I);
    Cases.push_back({mutationLib(Mut), Mut});
  }
  MemoTally Sum;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed)
    for (sim::ReductionMode Red :
         {sim::ReductionMode::None, sim::ReductionMode::SourceSet})
      for (const auto &[L, Mut] : Cases) {
        MemoTally T = exploreMemoAgainstUncached(memoScenario(L, Seed), Mut,
                                                 Red);
        Sum.Done += T.Done;
        Sum.Failures += T.Failures;
        Sum.Hits += T.Hits;
      }
  EXPECT_GT(Sum.Hits, 0u) << "no execution was answered from the memo";
  EXPECT_GT(Sum.Failures, 0u) << "no failing verdict was compared";
  EXPECT_LT(Sum.Hits, Sum.Done);
}

TEST(VerdictMemo, HitsCountTheirLinearizationAborts) {
  // A two-state search budget aborts almost every search; a hit must add
  // its stored LinAborted exactly as a computed verdict does.
  Scenario S;
  S.L = Lib::MsQueue;
  S.PreemptionBound = 1;
  S.Threads = {{{OpCode::Enq, 1}, {OpCode::Deq, 0}, {OpCode::Enq, 2}},
               {{OpCode::Enq, 3}, {OpCode::Deq, 0}}};
  MemoTally T = exploreMemoAgainstUncached(S, Mutation::None,
                                           sim::ReductionMode::None, {2});
  EXPECT_GT(T.Hits, 0u);
  EXPECT_GT(T.Aborts, T.Done / 2);
  EXPECT_EQ(T.LinAborts, T.Aborts);
}

namespace {

/// Explores \p S under \p Mut at one worker and records, for every Done
/// execution, the memo's incremental key and verdictKey. Returns the
/// number of Done executions; fails the test if two executions share one
/// key but not the other.
uint64_t expectKeysAgree(const Scenario &S, Mutation Mut,
                         sim::ReductionMode Red) {
  Instrumented I = makeInstrumented(S, Mut, scenarioOptions(S, 3000, 1, Red));
  const RunState &St = *I.State;
  using Key = std::vector<uint64_t>;
  std::map<Key, Key> ByMemo, ByVerdict;
  uint64_t Done = 0;
  sim::Workload::Body B = I.W.makeBody();
  B.Check = [&, Check = std::move(B.Check)](rmc::Machine &M,
                                            sim::Scheduler &Sch,
                                            sim::Scheduler::RunResult R) {
    if (R == sim::Scheduler::RunResult::Done) {
      const graph::EventGraph &G = St.Mon->graph();
      Key Memo = G.keyWords(), Tail, Verdict;
      memoKeyTail(G, St.Results, Tail);
      Memo.insert(Memo.end(), Tail.begin(), Tail.end());
      verdictKey(G, St.Results, Verdict);
      auto [M1, New1] = ByMemo.emplace(Memo, Verdict);
      auto [M2, New2] = ByVerdict.emplace(Verdict, Memo);
      EXPECT_EQ(M1->second, Verdict)
          << S.str() << ": equal incremental keys, different verdictKeys";
      EXPECT_EQ(M2->second, Memo)
          << S.str() << ": equal verdictKeys, different incremental keys";
      ++Done;
    }
    return Check(M, Sch, R);
  };
  sim::exploreSerial(sim::Workload(I.W.options(), std::move(B)));
  EXPECT_EQ(ByMemo.size(), ByVerdict.size()) << S.str();
  return Done - ByMemo.size(); // Executions that repeated a key.
}

} // namespace

TEST(VerdictMemo, IncrementalKeysAgreeWithVerdictKeys) {
  // Over the explored executions of generated scenarios of every library,
  // pristine and with each mutation, in both reduction modes: two
  // executions share an incremental key if and only if their verdictKeys
  // are equal.
  uint64_t Repeats = 0;
  for (uint64_t Seed = 1; Seed <= 2; ++Seed)
    for (sim::ReductionMode Red :
         {sim::ReductionMode::None, sim::ReductionMode::SourceSet}) {
      for (unsigned I = 0; I != NumLibs; ++I)
        Repeats += expectKeysAgree(memoScenario(allLibs()[I], Seed),
                                   Mutation::None, Red);
      for (unsigned I = 1; I != NumMutations; ++I) {
        auto Mut = static_cast<Mutation>(I);
        Repeats += expectKeysAgree(memoScenario(mutationLib(Mut), Seed), Mut,
                                   Red);
      }
    }
  EXPECT_GT(Repeats, 0u) << "no two executions shared a key";
}
