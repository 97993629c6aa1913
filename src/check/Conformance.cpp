//===-- check/Conformance.cpp - Sweep + mutation-test drivers -------------===//

#include "check/Conformance.h"

#include "check/Checkpoint.h"
#include "check/Telemetry.h"
#include "support/Json.h"

#include <chrono>
#include <iomanip>
#include <limits>
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
  size_t Li0 = 0;
  unsigned Sc0 = 0;

  SweepResult Res;
  SweepReport &Rep = Res.Rep;

  if (Resume) {
    // The checkpoint's configuration wins (it determines the scenario
    // stream and the fingerprint); only the worker count is free.
    O.Seed = Resume->Seed;
    O.ScenariosPerLib = Resume->ScenariosPerLib;
    O.MaxExecutionsPerScenario = Resume->MaxExecutionsPerScenario;
    O.Reduction = Resume->Reduction;
    O.Gen = Resume->Gen;
    Libs = Resume->Libs;
    Li0 = Resume->LibIndex;
    Sc0 = Resume->ScenarioIndex;
    Rep.Fp = Resume->Fp;
    Rep.PerLib = Resume->DoneLibs;
  } else {
    Libs = O.Libs;
    if (Libs.empty())
      Libs.assign(allLibs(), allLibs() + NumLibs);
  }
  Rep.Seed = O.Seed;
  Rep.Workers = O.Workers;

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
  constexpr double Inf = std::numeric_limits<double>::infinity();

  // Running total of the sweep's finished scenarios across libraries; its
  // counters go into heartbeat records.
  LibSweepStats Total;
  for (const LibSweepStats &St : Rep.PerLib)
    Total.add(St);
  if (Resume)
    Total.add(Resume->CurLib);
  // Cumulative sweep executions (finished scenarios + the in-flight
  // scenario's executed base), driving the execution-count cadence.
  uint64_t SweepExecs = Resume ? Resume->executions() : 0;
  uint64_t NextCkptExecs =
      C.CheckpointEveryExecs > 0 ? SweepExecs + C.CheckpointEveryExecs : 0;
  double NextCkptTime = C.CheckpointEverySec > 0 ? C.CheckpointEverySec : 0;

  auto StopAsked = [&C] {
    return C.StopRequested &&
           C.StopRequested->load(std::memory_order_relaxed);
  };
  auto BudgetSpent = [&] {
    return C.TimeBudgetSec > 0 && Elapsed() >= C.TimeBudgetSec;
  };

  auto BuildCkpt = [&](size_t Li, unsigned Sc, const LibSweepStats &St,
                       bool HasSnap, uint64_t LinBase,
                       sim::ExplorationSnapshot Snap) {
    SweepCheckpoint K;
    K.Seed = O.Seed;
    K.ScenariosPerLib = O.ScenariosPerLib;
    K.MaxExecutionsPerScenario = O.MaxExecutionsPerScenario;
    K.Reduction = O.Reduction;
    K.Libs = Libs;
    K.Gen = O.Gen;
    K.Fp = Rep.Fp;
    K.LibIndex = Li;
    K.ScenarioIndex = Sc;
    K.DoneLibs = Rep.PerLib;
    K.CurLib = St;
    K.HasScenario = HasSnap;
    K.ScenarioLinAborts = LinBase;
    K.Scenario = std::move(Snap);
    return K;
  };

  for (size_t Li = Li0; Li != Libs.size(); ++Li) {
    Lib L = Libs[Li];
    LibSweepStats St;
    St.L = L;
    unsigned IBegin = 0;
    if (Resume && Li == Li0) {
      St = Resume->CurLib;
      IBegin = Sc0;
    }
    for (unsigned I = IBegin; I != O.ScenariosPerLib; ++I) {
      Scenario S = generateScenario(L, scenarioSeed(O.Seed, L, I), O.Gen);
      sim::Explorer::Options Opts =
          scenarioOptions(S, O.MaxExecutionsPerScenario, O.Workers,
                          O.Reduction);

      // Explore the scenario, possibly across several interrupted
      // segments (cadence checkpoints resume in-process; a stop request
      // or spent time budget returns the final checkpoint).
      sim::ExplorationSnapshot Snap;
      bool HaveSnap = false;
      uint64_t LinBase = 0;
      if (Resume && Li == Li0 && I == Sc0 && Resume->HasScenario) {
        Snap = Resume->Scenario;
        HaveSnap = true;
        LinBase = Resume->ScenarioLinAborts;
      }
      sim::Explorer::Summary Sum;
      for (;;) {
        auto LinAborts = std::make_shared<std::atomic<uint64_t>>(0);
        sim::Workload W = makeWorkload(S, Mutation::None, Opts, LinAborts);

        sim::ExploreControl Ec;
        Ec.StopRequested = C.StopRequested;
        uint64_t Base = HaveSnap ? Snap.Partial.Executions : 0;
        if (NextCkptExecs > 0)
          Ec.InterruptAtExecs =
              Base + (NextCkptExecs > SweepExecs ? NextCkptExecs - SweepExecs
                                                 : 0);
        double Deadline = Inf;
        if (C.TimeBudgetSec > 0)
          Deadline = std::min(Deadline, C.TimeBudgetSec - Elapsed());
        if (C.CheckpointEverySec > 0)
          Deadline = std::min(Deadline, NextCkptTime - Elapsed());
        if (Deadline != Inf)
          Ec.DeadlineSec = std::max(Deadline, 1e-3);
        if (C.Telem) {
          Ec.HeartbeatIntervalSec = C.HeartbeatIntervalSec;
          Ec.OnHeartbeat = [&C, L, I,
                            &Total](const sim::ExploreHeartbeat &Hb) {
            C.Telem->heartbeat(libName(L), I, Hb, Total);
          };
        }

        sim::ExploreResult ER =
            sim::exploreResumable(W, Ec, HaveSnap ? &Snap : nullptr);
        LinBase += LinAborts->load();
        SweepExecs = Total.Executions + ER.Sum.Executions;
        if (!ER.Interrupted) {
          Sum = std::move(ER.Sum);
          break;
        }
        Snap = std::move(ER.Snapshot);
        HaveSnap = true;
        if (StopAsked() || BudgetSpent()) {
          Res.Interrupted = true;
          Res.Ckpt = BuildCkpt(Li, I, St, true, LinBase, std::move(Snap));
          return Res;
        }
        // Cadence checkpoint: hand out a copy and keep exploring.
        if (NextCkptExecs > 0 && SweepExecs >= NextCkptExecs)
          NextCkptExecs = SweepExecs + C.CheckpointEveryExecs;
        if (C.CheckpointEverySec > 0 && Elapsed() >= NextCkptTime)
          NextCkptTime = Elapsed() + C.CheckpointEverySec;
        if (C.OnCheckpoint)
          C.OnCheckpoint(BuildCkpt(Li, I, St, true, LinBase, Snap));
      }

      LibSweepStats One;
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
      One.LinAborts = LinBase;
      One.Truncated = !Sum.Exhausted;
      St.add(One);
      Total.add(One);
      SweepExecs = Total.Executions;
      // Deterministic fingerprint: a truncated tree's explored subset is
      // worker-count dependent, so only exhausted scenarios contribute
      // their counters (see SweepReport::fingerprint).
      Mix(static_cast<uint64_t>(L));
      Mix(I);
      Mix(Sum.Exhausted);
      if (Sum.Exhausted) {
        Mix(Sum.Executions);
        Mix(Sum.Completed);
        Mix(Sum.Races);
        Mix(Sum.Deadlocks);
        Mix(Sum.Violations);
        Mix(Sum.SleepPruned);
        Mix(Sum.RfPruned);
        Mix(Sum.SourcePruned);
        Mix(0); // Once the always-zero duplicate-rf cache count; kept so
                // fingerprints stay comparable across versions.
        Mix(Sum.MaxDepth);
      }
      if (Sum.HasViolation && St.FirstBadScenario == ~0u) {
        St.FirstBadScenario = I;
        // Replay the first violation serially for a structured verdict.
        TraceDiagnosis D =
            diagnoseTrace(S, Mutation::None, scenarioOptions(S, 1, 1),
                          Sum.firstViolationDecisions());
        St.FirstBad = S.str() + " | " + D.V.str() + " | " +
                      sim::formatReplayCall(D.Executed);
        if (C.Telem)
          C.Telem->violation(libName(L), I, S.str(), D.V.str(), D.Executed);
      }

      // Scenario-boundary interrupt / cadence checks (catch stop requests
      // and thresholds crossed by the just-finished scenario).
      bool Boundary = I + 1 != O.ScenariosPerLib || Li + 1 != Libs.size();
      if (Boundary && (StopAsked() || BudgetSpent())) {
        Res.Interrupted = true;
        Res.Ckpt = BuildCkpt(Li, I + 1, St, false, 0,
                             sim::ExplorationSnapshot{});
        return Res;
      }
      bool CkptDue = false;
      if (NextCkptExecs > 0 && SweepExecs >= NextCkptExecs) {
        NextCkptExecs = SweepExecs + C.CheckpointEveryExecs;
        CkptDue = true;
      }
      if (C.CheckpointEverySec > 0 && Elapsed() >= NextCkptTime) {
        NextCkptTime = Elapsed() + C.CheckpointEverySec;
        CkptDue = true;
      }
      if (Boundary && CkptDue && C.OnCheckpoint)
        C.OnCheckpoint(BuildCkpt(Li, I + 1, St, false, 0,
                                 sim::ExplorationSnapshot{}));
    }
    Rep.PerLib.push_back(std::move(St));
  }
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
