//===-- check/Conformance.cpp - Sweep + mutation-test drivers -------------===//

#include "check/Conformance.h"

#include "check/Checkpoint.h"
#include "check/Telemetry.h"
#include "sim/ParallelExplorer.h"
#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <map>
#include <mutex>
#include <sstream>

using namespace compass;
using namespace compass::check;

//===----------------------------------------------------------------------===//
// Sweep
//===----------------------------------------------------------------------===//

SweepResult check::runSweepResumable(const SweepOptions &OIn,
                                     const SweepControl &C,
                                     const SweepCheckpoint *Resume) {
  SweepOptions O = OIn;
  std::vector<Lib> Libs;
  SweepResult Res;
  SweepReport &Rep = Res.Rep;
  // The fold: Rep.PerLib holds the finished libraries and Cur the folded
  // scenarios of library CurLi. Folded numbers the scenarios folded so
  // far, in sweep order (library-major); Ahead holds the scenarios that
  // finished while an earlier one was still running.
  LibSweepStats Cur;
  size_t CurLi = 0;
  size_t Folded = 0;
  std::map<size_t, FinishedScenario> Ahead;

  if (Resume) {
    // The checkpoint's configuration wins (it determines the scenario
    // stream and the fingerprint); only the worker count is free.
    O.Seed = Resume->Seed;
    O.ScenariosPerLib = Resume->ScenariosPerLib;
    O.MaxExecutionsPerScenario = Resume->MaxExecutionsPerScenario;
    O.Reduction = Resume->Reduction;
    O.Gen = Resume->Gen;
    Libs = Resume->Libs;
    Rep.Fp = Resume->Fp;
    Rep.PerLib = Resume->DoneLibs;
    Cur = Resume->CurLib;
    CurLi = Resume->LibIndex;
    Folded = CurLi * O.ScenariosPerLib + Resume->ScenarioIndex;
    for (const FinishedScenario &F : Resume->Ahead)
      Ahead.emplace(F.Index, F);
  } else {
    Libs = O.Libs;
    if (Libs.empty())
      Libs.assign(allLibs(), allLibs() + NumLibs);
    Cur.L = Libs[0];
  }
  Rep.Seed = O.Seed;
  Rep.Workers = O.Workers;
  const unsigned PerLib = O.ScenariosPerLib;
  const size_t NumScenarios = Libs.size() * PerLib;

  auto Mix = [&Rep](uint64_t V) {
    for (unsigned I = 0; I != 8; ++I) {
      Rep.Fp ^= (V >> (8 * I)) & 0xff;
      Rep.Fp *= 1099511628211ull;
    }
  };
  if (!Resume)
    Mix(O.Seed);

  auto Start = std::chrono::steady_clock::now();
  auto Elapsed = [&Start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  };

  // Running total of the folded scenarios across libraries, for heartbeat
  // records; Held counts the executions of every finished scenario,
  // folded or ahead, for the execution-count cadence and the rate.
  LibSweepStats Total;
  for (const LibSweepStats &St : Rep.PerLib)
    Total.add(St);
  Total.add(Cur);
  uint64_t Held = Resume ? Resume->executions() : 0;
  const uint64_t BaseHeld = Held;
  uint64_t NextCkptExecs =
      C.CheckpointEveryExecs > 0 ? Held + C.CheckpointEveryExecs : 0;
  double NextCkptTime = C.CheckpointEverySec;
  double LastHeartbeat = 0;

  auto StopAsked = [&C] {
    return C.StopRequested &&
           C.StopRequested->load(std::memory_order_relaxed);
  };
  auto BudgetSpent = [&] {
    return C.TimeBudgetSec > 0 && Elapsed() >= C.TimeBudgetSec;
  };

  // Moves the fold on to library Li, finishing the libraries before it.
  auto AdvanceTo = [&](size_t Li) {
    for (; CurLi < Li; ++CurLi) {
      Rep.PerLib.push_back(std::move(Cur));
      Cur = LibSweepStats{};
      if (CurLi + 1 < Libs.size())
        Cur.L = Libs[CurLi + 1];
    }
  };
  // The checkpoint of the finished scenarios: resuming it re-runs every
  // other scenario from Folded on.
  auto BuildCkpt = [&] {
    AdvanceTo(Folded / PerLib);
    SweepCheckpoint K;
    K.Seed = O.Seed;
    K.ScenariosPerLib = PerLib;
    K.MaxExecutionsPerScenario = O.MaxExecutionsPerScenario;
    K.Reduction = O.Reduction;
    K.Libs = Libs;
    K.Gen = O.Gen;
    K.Fp = Rep.Fp;
    K.LibIndex = CurLi;
    K.ScenarioIndex = static_cast<unsigned>(Folded - CurLi * PerLib);
    K.DoneLibs = Rep.PerLib;
    K.CurLib = Cur;
    for (const auto &[Index, F] : Ahead)
      K.Ahead.push_back(F);
    return K;
  };

  // Folds scenario number Folded.
  auto Fold = [&](const FinishedScenario &F) {
    const size_t Li = Folded / PerLib;
    const unsigned I = static_cast<unsigned>(Folded % PerLib);
    const Lib L = Libs[Li];
    const LibSweepStats &One = F.Stats;
    AdvanceTo(Li);
    Cur.add(One);
    Total.add(One);
    // Only exhausted scenarios mix their counters (see
    // SweepReport::fingerprint).
    const bool Exhausted = !One.Truncated;
    Mix(static_cast<uint64_t>(L));
    Mix(I);
    Mix(Exhausted);
    if (Exhausted) {
      Mix(One.Executions);
      Mix(One.Completed);
      Mix(One.Races);
      Mix(One.Deadlocks);
      Mix(One.Violations);
      Mix(One.SleepPruned);
      Mix(One.RfPruned);
      Mix(One.SourcePruned);
      Mix(0); // Once the always-zero duplicate-rf cache count; kept so
              // fingerprints stay comparable across versions.
      Mix(One.MaxDepth);
    }
    if (One.Violations && Cur.FirstBadScenario == ~0u) {
      Cur.FirstBadScenario = I;
      // Replay the first violation serially for a structured verdict.
      Scenario S = generateScenario(L, scenarioSeed(O.Seed, L, I), O.Gen);
      TraceDiagnosis D = diagnoseTrace(
          S, Mutation::None, scenarioOptions(S, 1, 1), F.FirstViolation);
      Cur.FirstBad = S.str() + " | " + D.V.str() + " | " +
                     sim::formatReplayCall(D.Executed);
      if (C.Telem)
        C.Telem->violation(libName(L), I, S.str(), D.V.str(), D.Executed);
    }
    ++Folded;
  };
  // Folds the finished scenarios at the head of the fold.
  auto FoldReady = [&] {
    for (auto It = Ahead.begin(); It != Ahead.end() && It->first == Folded;
         It = Ahead.erase(It))
      Fold(It->second);
  };
  FoldReady();

  const unsigned N = static_cast<unsigned>(std::max<size_t>(
      1, std::min<size_t>(O.Workers, NumScenarios - Folded)));
  std::vector<Telemetry::InFlight> InFlight(N); ///< Per worker.

  // After a scenario finishes: hands out a cadence checkpoint or a
  // heartbeat when one is due.
  auto AfterFinish = [&] {
    const double Now = Elapsed();
    bool CkptDue = false;
    if (NextCkptExecs > 0 && Held >= NextCkptExecs) {
      NextCkptExecs = Held + C.CheckpointEveryExecs;
      CkptDue = true;
    }
    if (C.CheckpointEverySec > 0 && Now >= NextCkptTime) {
      NextCkptTime = Now + C.CheckpointEverySec;
      CkptDue = true;
    }
    if (CkptDue && C.OnCheckpoint && Folded != NumScenarios)
      C.OnCheckpoint(BuildCkpt());
    if (C.Telem && Now - LastHeartbeat >= C.HeartbeatIntervalSec) {
      LastHeartbeat = Now;
      C.Telem->heartbeat(Now > 0 ? (Held - BaseHeld) / Now : 0.0, InFlight,
                         Total);
    }
  };

  // Workers claim scenarios in sweep order, skipping those finished ahead,
  // and explore each at one worker; a finished scenario folds once every
  // earlier one has. Claims, the fold and everything it writes are under
  // Mu. The first scenario this run claims is the head of the fold; it
  // runs whatever the time budget says, so every run folds at least one.
  std::mutex Mu;
  size_t NextClaim = Folded;
  const size_t FirstClaim = Folded;
  bool Stopping = false;
  sim::runOnHelpers(N, [&](unsigned Wid) {
    std::unique_lock<std::mutex> Lock(Mu);
    for (;;) {
      // Folded can pass NextClaim when a resume's records fold.
      NextClaim = std::max(NextClaim, Folded);
      while (NextClaim != NumScenarios && Ahead.count(NextClaim))
        ++NextClaim;
      if (NextClaim == NumScenarios || Stopping)
        break;
      const bool Budgeted = C.TimeBudgetSec > 0 && NextClaim != FirstClaim;
      if (StopAsked() || (Budgeted && BudgetSpent())) {
        Stopping = true;
        break;
      }
      const size_t K = NextClaim++;
      const Lib L = Libs[K / PerLib];
      const unsigned I = static_cast<unsigned>(K % PerLib);
      InFlight[Wid] = {libName(L), I};
      Lock.unlock();

      Scenario S = generateScenario(L, scenarioSeed(O.Seed, L, I), O.Gen);
      auto LinAborts = std::make_shared<std::atomic<uint64_t>>(0);
      sim::Workload W = makeWorkload(
          S, Mutation::None,
          scenarioOptions(S, O.MaxExecutionsPerScenario, 1, O.Reduction),
          LinAborts);
      sim::ExploreControl Ec;
      Ec.StopRequested = C.StopRequested;
      if (Budgeted)
        Ec.DeadlineSec = std::max(C.TimeBudgetSec - Elapsed(), 1e-3);
      sim::ExploreResult ER = sim::exploreResumable(W, Ec);

      Lock.lock();
      InFlight[Wid] = {};
      if (ER.Interrupted) {
        // A resume re-runs this scenario from its root.
        Stopping = true;
        break;
      }
      const sim::Explorer::Summary &Sum = ER.Sum;
      FinishedScenario F;
      F.Index = K;
      LibSweepStats &One = F.Stats;
      One.L = L;
      One.Scenarios = 1;
      One.Executions = Sum.Executions;
      One.Completed = Sum.Completed;
      One.Races = Sum.Races;
      One.Deadlocks = Sum.Deadlocks;
      One.Violations = Sum.Violations;
      One.SleepPruned = Sum.SleepPruned;
      One.RfPruned = Sum.RfPruned;
      One.SourcePruned = Sum.SourcePruned;
      One.MaxDepth = Sum.MaxDepth;
      One.LinAborts = LinAborts->load();
      One.Truncated = !Sum.Exhausted;
      if (Sum.HasViolation)
        F.FirstViolation = Sum.firstViolationDecisions();
      Held += One.Executions;
      Ahead.emplace(K, std::move(F));
      FoldReady();
      AfterFinish();
    }
  });

  if (Folded != NumScenarios) {
    Res.Interrupted = true;
    Res.Ckpt = BuildCkpt();
    return Res;
  }
  AdvanceTo(Libs.size());
  return Res;
}

void LibSweepStats::add(const LibSweepStats &O) {
  Scenarios += O.Scenarios;
  Executions += O.Executions;
  Completed += O.Completed;
  Races += O.Races;
  Deadlocks += O.Deadlocks;
  Violations += O.Violations;
  SleepPruned += O.SleepPruned;
  RfPruned += O.RfPruned;
  SourcePruned += O.SourcePruned;
  MaxDepth = std::max(MaxDepth, O.MaxDepth);
  LinAborts += O.LinAborts;
  Truncated += O.Truncated;
}

SweepReport check::runSweep(const SweepOptions &O) {
  return runSweepResumable(O, SweepControl{}, nullptr).Rep;
}

uint64_t SweepReport::totalViolations() const {
  uint64_t N = 0;
  for (const LibSweepStats &St : PerLib)
    N += St.Violations + St.Races + St.Deadlocks;
  return N;
}

uint64_t SweepReport::totalExecutions() const {
  uint64_t N = 0;
  for (const LibSweepStats &St : PerLib)
    N += St.Executions;
  return N;
}

unsigned SweepReport::totalTruncated() const {
  unsigned N = 0;
  for (const LibSweepStats &St : PerLib)
    N += St.Truncated;
  return N;
}

std::string SweepReport::str() const {
  std::ostringstream OS;
  OS << "conformance sweep: seed=" << Seed << " workers=" << Workers << "\n";
  OS << std::left << std::setw(14) << "lib" << std::right << std::setw(6)
     << "scen" << std::setw(12) << "execs" << std::setw(10) << "slept"
     << std::setw(7) << "races" << std::setw(7) << "dlock" << std::setw(7)
     << "viols" << std::setw(9) << "linabrt" << std::setw(7) << "trunc"
     << std::setw(9) << "maxdep" << "\n";
  for (const LibSweepStats &St : PerLib) {
    OS << std::left << std::setw(14) << libName(St.L) << std::right
       << std::setw(6) << St.Scenarios << std::setw(12) << St.Executions
       << std::setw(10) << St.SleepPruned << std::setw(7) << St.Races
       << std::setw(7) << St.Deadlocks << std::setw(7) << St.Violations
       << std::setw(9) << St.LinAborts << std::setw(7) << St.Truncated
       << std::setw(9) << St.MaxDepth << "\n";
    if (!St.FirstBad.empty())
      OS << "  first violation (scenario #" << St.FirstBadScenario
         << "): " << St.FirstBad << "\n";
  }
  OS << "fingerprint: 0x" << std::hex << fingerprint() << std::dec;
  if (!clean())
    OS << "  (VIOLATIONS)\n";
  else if (const unsigned T = totalTruncated())
    OS << "  (clean, incomplete (" << T << " truncated))\n";
  else
    OS << "  (clean)\n";
  return OS.str();
}

std::string SweepReport::json() const {
  JsonWriter J;
  J.beginObject();
  J.field("seed", Seed);
  J.field("workers", Workers);
  J.field("violations", totalViolations());
  J.field("executions", totalExecutions());
  J.field("truncated", totalTruncated());
  {
    std::ostringstream FP;
    FP << "0x" << std::hex << fingerprint();
    J.field("fingerprint", FP.str());
  }
  J.key("libs");
  J.beginArray();
  for (const LibSweepStats &St : PerLib) {
    J.beginObject();
    J.field("lib", libName(St.L));
    J.field("scenarios", St.Scenarios);
    J.field("executions", St.Executions);
    J.field("completed", St.Completed);
    J.field("races", St.Races);
    J.field("deadlocks", St.Deadlocks);
    J.field("violations", St.Violations);
    J.field("sleep_pruned", St.SleepPruned);
    J.field("rf_pruned", St.RfPruned);
    J.field("source_pruned", St.SourcePruned);
    J.field("lin_aborts", St.LinAborts);
    J.field("truncated", St.Truncated);
    J.field("max_depth", St.MaxDepth);
    if (!St.FirstBad.empty())
      J.field("first_bad", St.FirstBad);
    J.endObject();
  }
  J.endArray();
  J.endObject();
  return J.str();
}

//===----------------------------------------------------------------------===//
// Mutation testing
//===----------------------------------------------------------------------===//

MutantReport check::huntMutant(Mutation Mut, const MutationOptions &O) {
  MutantReport R;
  R.Mut = Mut;
  Lib L = mutationLib(Mut);
  GenOptions Gen = GenOptions::hunting();
  for (unsigned I = 0; I != O.MaxScenarios; ++I) {
    Scenario S = generateScenario(L, scenarioSeed(O.Seed, L, I), Gen);
    ++R.ScenariosTried;
    std::vector<unsigned> Trace;
    if (!scenarioFails(S, Mut, O.MaxExecutionsPerScenario, Trace,
                       O.Reduction))
      continue;
    R.Killed = true;
    R.Killer = S;
    R.KillerDecisions = Trace;
    if (O.Shrink) {
      R.Shrunk = shrinkCounterexample(S, Mut, Trace, O.Shr);
      R.Rule = R.Shrunk.V.Rule;
    } else {
      TraceDiagnosis D = diagnoseTrace(S, Mut, scenarioOptions(S, 1, 1), Trace);
      R.Rule = D.V.Rule;
    }
    break;
  }
  return R;
}

std::vector<MutantReport> check::runMutationTests(const MutationOptions &O) {
  std::vector<Mutation> Muts = O.Muts;
  if (Muts.empty())
    for (unsigned I = 1; I != NumMutations; ++I) // Skip None.
      Muts.push_back(static_cast<Mutation>(I));
  std::vector<MutantReport> Out;
  for (Mutation M : Muts)
    Out.push_back(huntMutant(M, O));
  return Out;
}

std::string MutantReport::str() const {
  std::ostringstream OS;
  OS << mutationName(Mut) << ": ";
  if (!Killed) {
    OS << "SURVIVED after " << ScenariosTried << " scenarios";
    return OS.str();
  }
  OS << "killed (scenario #" << (ScenariosTried - 1) << ", rule "
     << (Rule.empty() ? "?" : Rule) << ")";
  if (Shrunk.OpsBefore)
    OS << "; shrunk " << Shrunk.str() << "; min: " << Shrunk.Min.str();
  return OS.str();
}

CorpusEntry check::corpusEntryFor(const MutantReport &R) {
  CorpusEntry E;
  E.Mut = R.Mut;
  if (R.Shrunk.OpsBefore) { // Shrinking ran.
    E.S = R.Shrunk.Min;
    E.Decisions = R.Shrunk.Decisions;
  } else {
    E.S = R.Killer;
    E.Decisions = R.KillerDecisions;
  }
  E.Note = std::string(mutationDescription(R.Mut)) + "; rule " +
           (R.Rule.empty() ? "?" : R.Rule);
  return E;
}
