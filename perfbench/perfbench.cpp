//===-- perfbench/perfbench.cpp - Checker benchmark program ---------------===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the checker through its public API only (check::generateScenario,
/// scenarioOptions, makeWorkload, sim::explore, huntMutant, scenarioFails's
/// steps, shrinkCounterexample) and prints one JSON object with the raw
/// measurements of one run. perfbench/run.py turns those into the
/// benchmark's metrics; see perfbench/README.md.
///
///   perfbench sweep|oracle|hunt --seed N --seconds S [--trace]
///       [--spans FILE] [--setup-only] [--mutation NAME] [--compare-runsweep]
///
/// Each workload's settings are fixed in the Workloads table below; --seed
/// picks the inputs and --seconds their number.
///
/// Two task loops:
///  * explore: one sim::explore call per generated scenario (the sweep and
///    oracle workloads), a stratified sample of each library's stream;
///  * hunt: one huntMutant call per (mutation, hunt seed) pair.
///
/// With --trace, each workload's body factory is wrapped so every worker's
/// Setup / Check / CowSave / CowRestore closure is timed from outside on the
/// thread's CPU clock, per body and without shared atomics. The hunt loop is
/// then composed from the same steps as huntMutant (serial StopOnViolation
/// search, then shrinkCounterexample) so search and shrink time separate.
/// Spans (one per task; a search and a shrink span per hunt) are kept in
/// memory and written to --spans at the end.
///
//===----------------------------------------------------------------------===//

#include "check/Conformance.h"
#include "support/Json.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

using namespace compass;
using namespace compass::check;

namespace {

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// Every run has at least this many tasks, so task_p90_ms has at least 10
/// samples beyond it.
constexpr unsigned MinTasks = 100;

/// The seed to tune against; its streams also fix the shape mix of every
/// seed's scenarios (see drawScenarios). Seed 7919 is held out, to recheck
/// a claim on inputs it was not tuned against.
constexpr uint64_t DefaultSeed = 1;

struct WorkloadSpec {
  const char *Name;
  bool Hunt;             ///< hunt loop; otherwise the explore loop.
  unsigned Workers;
  sim::ReductionMode Red;
  uint64_t Cap;          ///< Executions per scenario.
  uint64_t ShrinkCap;    ///< hunt: executions per shrink candidate.
  GenOptions Gen;        ///< explore: scenario shape bounds.
  uint64_t StreamOffset; ///< explore: added to --seed to pick the stream.
  /// Scenarios per library (explore) or hunt seeds per mutation (hunt) per
  /// second of --seconds; calibrated on a 4-core x86 VM.
  double SizePerSecond;
};

GenOptions shape(unsigned MaxThreads, unsigned MaxOps) {
  GenOptions G;
  G.MinThreads = 2;
  G.MaxThreads = MaxThreads;
  G.MinOpsPerThread = 1;
  G.MaxOpsPerThread = MaxOps;
  G.MinPreemptions = G.MaxPreemptions = 1;
  return G;
}

const WorkloadSpec Workloads[] = {
    // Pristine sweep: source sets, COW engine, 4 workers, the sweep's 200k
    // cap. Preemption bound 1 and at most two ops per thread, so no tree
    // nears the cap.
    {"sweep", false, 4, sim::ReductionMode::SourceSet, 200000, 0, shape(3, 2),
     0, 50},
    // The differential oracle: serial and unreduced, on its own stream.
    {"oracle", false, 1, sim::ReductionMode::None, 50000, 0, shape(2, 3),
     uint64_t(1) << 32, 100},
    // Bug finding; huntMutant's own scenario shapes (GenOptions::hunting).
    {"hunt", true, 1, sim::ReductionMode::SourceSet, 2000, 2000, {}, 0, 13},
};

//===----------------------------------------------------------------------===//
// Clocks
//===----------------------------------------------------------------------===//

/// CLOCK_MONOTONIC seconds; the same clock as Python's time.monotonic(), so
/// run.py can measure set-up from before it spawned this process.
double monoNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t clockNs(clockid_t Id) {
  timespec T{};
  clock_gettime(Id, &T);
  return uint64_t(T.tv_sec) * 1000000000u + uint64_t(T.tv_nsec);
}

/// CPU time of the calling thread, in nanoseconds.
uint64_t threadNs() { return clockNs(CLOCK_THREAD_CPUTIME_ID); }

/// CPU seconds of the whole process (all threads, user+sys).
double cpuNow() { return clockNs(CLOCK_PROCESS_CPUTIME_ID) * 1e-9; }

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// What one timed closure call costs the tracer itself: \c Inside is the
/// part that lands between the two clock samples (and so inflates the
/// closure's reading), \c Total the whole cost of the two reads.
struct TimerCost {
  double Inside = 0, Total = 0; ///< Nanoseconds per call.
};

TimerCost calibrate() {
  constexpr unsigned N = 20001;
  std::vector<uint64_t> D(N);
  uint64_t T0 = threadNs();
  for (uint64_t &Dt : D) {
    uint64_t A = threadNs();
    Dt = threadNs() - A;
  }
  uint64_t T1 = threadNs();
  std::nth_element(D.begin(), D.begin() + N / 2, D.end());
  return {double(D[N / 2]), double(T1 - T0) / N};
}

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

struct Config {
  const WorkloadSpec *W = nullptr;
  uint64_t Seed = 1;
  double Seconds = 0;
  unsigned Size = 0;             ///< Per library, or per mutation (hunt).
  Mutation Mut = Mutation::None; ///< explore: run its library mutated.
  bool Trace = false;
  bool SetupOnly = false;        ///< Generate the inputs, report, and exit.
  bool CompareRunSweep = false;  ///< explore: cross-check with runSweep.
  std::string SpansPath;
};

[[noreturn]] void usage(const std::string &Msg) {
  std::cerr << "perfbench: " << Msg << "\n"
            << "usage: perfbench sweep|oracle|hunt --seed N --seconds S "
               "[--trace] [--spans FILE] [--setup-only] [--mutation NAME] "
               "[--compare-runsweep]\n";
  std::exit(2);
}

uint64_t parseNum(const std::string &Flag, const char *S) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End || S[0] == '-')
    usage("bad number for " + Flag + ": " + S);
  return V;
}

Config parseArgs(int Argc, char **Argv) {
  if (Argc < 2)
    usage("missing workload");
  Config C;
  for (const WorkloadSpec &W : Workloads)
    if (W.Name == std::string(Argv[1]))
      C.W = &W;
  if (!C.W)
    usage(std::string("unknown workload ") + Argv[1]);
  for (int I = 2; I < Argc; ++I) {
    std::string F = Argv[I];
    auto Val = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage("missing value for " + F);
      return Argv[++I];
    };
    if (F == "--seed")
      C.Seed = parseNum(F, Val());
    else if (F == "--seconds") {
      const char *S = Val();
      char *End = nullptr;
      C.Seconds = std::strtod(S, &End);
      if (End == S || *End || !(C.Seconds > 0))
        usage(std::string("bad --seconds: ") + S);
    } else if (F == "--mutation") {
      if (!parseMutation(Val(), C.Mut))
        usage("bad --mutation");
    } else if (F == "--trace")
      C.Trace = true;
    else if (F == "--spans")
      C.SpansPath = Val();
    else if (F == "--setup-only")
      C.SetupOnly = true;
    else if (F == "--compare-runsweep")
      C.CompareRunSweep = true;
    else
      usage("unknown flag " + F);
  }
  if (!(C.Seconds > 0))
    usage("missing --seconds");
  unsigned Units = C.W->Hunt ? NumMutations - 1 : NumLibs;
  C.Size = static_cast<unsigned>(
      std::max(std::ceil(double(MinTasks) / Units),
               std::ceil(C.W->SizePerSecond * C.Seconds)));
  return C;
}

//===----------------------------------------------------------------------===//
// Tracing: per-body closure timers
//===----------------------------------------------------------------------===//

/// Thread CPU time spent in one body's closures. Each worker's body owns
/// one, so the hot path touches no shared state; the explorer joins its
/// workers before returning, after which the totals are read.
struct BodyCost {
  uint64_t SetupCalls = 0, SetupNs = 0;
  uint64_t CheckCalls = 0, CheckDone = 0, CheckNs = 0;
  uint64_t SaveCalls = 0, SaveNs = 0;
  uint64_t RestoreCalls = 0, RestoreNs = 0;

  void add(const BodyCost &O) {
    SetupCalls += O.SetupCalls;
    SetupNs += O.SetupNs;
    CheckCalls += O.CheckCalls;
    CheckDone += O.CheckDone;
    CheckNs += O.CheckNs;
    SaveCalls += O.SaveCalls;
    SaveNs += O.SaveNs;
    RestoreCalls += O.RestoreCalls;
    RestoreNs += O.RestoreNs;
  }
  uint64_t calls() const {
    return SetupCalls + CheckCalls + SaveCalls + RestoreCalls;
  }
};

/// Times \p F's calls on the thread CPU clock into \p Ns and \p Calls.
template <typename Fn>
auto timed(std::shared_ptr<BodyCost> C, uint64_t BodyCost::*Ns,
           uint64_t BodyCost::*Calls, Fn F) {
  return [C = std::move(C), Ns, Calls, F = std::move(F)](auto &&...Args) {
    uint64_t T0 = threadNs();
    if constexpr (std::is_void_v<decltype(F(Args...))>) {
      F(Args...);
      (*C).*Ns += threadNs() - T0;
      ++((*C).*Calls);
    } else {
      auto R = F(Args...);
      (*C).*Ns += threadNs() - T0;
      ++((*C).*Calls);
      return R;
    }
  };
}

/// Wraps workloads so their bodies are timed; collect() sums and forgets
/// the bodies made since the last collect().
class Tracer {
public:
  sim::Workload wrap(const sim::Workload &W) {
    return sim::Workload(W.options(), [this, W] { return wrapBody(W); });
  }

  BodyCost collect() {
    std::lock_guard<std::mutex> G(Mu);
    BodyCost Sum;
    for (const auto &C : Bodies)
      Sum.add(*C);
    Bodies.clear();
    return Sum;
  }

private:
  std::mutex Mu; ///< Guards Bodies; taken once per body, not per call.
  std::vector<std::shared_ptr<BodyCost>> Bodies;

  sim::Workload::Body wrapBody(const sim::Workload &W) {
    sim::Workload::Body B = W.makeBody();
    auto C = std::make_shared<BodyCost>();
    {
      std::lock_guard<std::mutex> G(Mu);
      Bodies.push_back(C);
    }
    // Copy the engine-path flags and leave a hook empty when the original
    // is, so the traced run takes exactly the untraced run's engine path.
    sim::Workload::Body T;
    T.CowSafe = B.CowSafe;
    T.CowSkipFinished = B.CowSkipFinished;
    T.Setup = timed(C, &BodyCost::SetupNs, &BodyCost::SetupCalls,
                    std::move(B.Setup));
    if (B.Check)
      T.Check = [C, F = std::move(B.Check)](rmc::Machine &M,
                                            sim::Scheduler &S,
                                            sim::Scheduler::RunResult R) {
        uint64_t T0 = threadNs();
        bool Ok = F(M, S, R);
        C->CheckNs += threadNs() - T0;
        ++C->CheckCalls;
        C->CheckDone += R == sim::Scheduler::RunResult::Done;
        return Ok;
      };
    if (B.CowSave)
      T.CowSave = timed(C, &BodyCost::SaveNs, &BodyCost::SaveCalls,
                        std::move(B.CowSave));
    if (B.CowRestore)
      T.CowRestore = timed(C, &BodyCost::RestoreNs, &BodyCost::RestoreCalls,
                           std::move(B.CowRestore));
    return T;
  }
};

/// One traced span: a task, or a hunt task's search or shrink phase.
struct Span {
  unsigned Task = 0;
  const char *Name = "";     ///< "search" or "shrink".
  std::string What;          ///< The scenario, or the hunted mutation.
  double Start = 0, End = 0; ///< CLOCK_MONOTONIC seconds.
  double Cpu = 0;            ///< Process CPU seconds inside the span.
  BodyCost Children;         ///< Closure time of the bodies it ran.
  uint64_t Execs = 0;        ///< Executions explored inside the span.
};

/// A span's CPU split into the closures it ran (less the timer reads that
/// fell inside them), the tracer's own clock reads, and the rest: the
/// explorer's self time. Negative self time means the children were
/// counted wrong.
struct SpanSplit {
  double Setup, Check, Save, Restore, Tracer, Self;
};

SpanSplit split(const Span &S, const TimerCost &K) {
  const BodyCost &B = S.Children;
  auto Net = [&](uint64_t Ns, uint64_t Calls) {
    return (double(Ns) - K.Inside * Calls) * 1e-9;
  };
  SpanSplit P{Net(B.SetupNs, B.SetupCalls), Net(B.CheckNs, B.CheckCalls),
              Net(B.SaveNs, B.SaveCalls), Net(B.RestoreNs, B.RestoreCalls),
              K.Total * B.calls() * 1e-9, 0};
  P.Self = S.Cpu - P.Setup - P.Check - P.Save - P.Restore - P.Tracer;
  return P;
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

/// Summary counters summed over a set of explorations.
struct Counters {
  uint64_t Scenarios = 0, Truncated = 0, Executions = 0, Completed = 0,
           Races = 0, Deadlocks = 0, Violations = 0, SleepPruned = 0,
           RfPruned = 0, SourcePruned = 0, CacheHits = 0, MaxDepth = 0,
           LinAborts = 0;
  uint64_t StepsExecuted = 0, StepsLogical = 0, CowResumes = 0,
           RootRuns = 0, PeakFrontier = 0, PeakQueue = 0, Donations = 0;

  void add(const sim::Explorer::Summary &S, uint64_t Lin = 0) {
    ++Scenarios;
    Truncated += !S.Exhausted && !S.HasViolation;
    Executions += S.Executions;
    Completed += S.Completed;
    Races += S.Races;
    Deadlocks += S.Deadlocks;
    Violations += S.Violations;
    SleepPruned += S.SleepPruned;
    RfPruned += S.RfPruned;
    SourcePruned += S.SourcePruned;
    CacheHits += S.CacheHits;
    MaxDepth = std::max(MaxDepth, S.MaxDepth);
    LinAborts += Lin;
    StepsExecuted += S.Perf.StepsExecuted;
    StepsLogical += S.Perf.StepsLogical;
    CowResumes += S.Perf.CowResumes;
    RootRuns += S.Perf.RootRuns;
    PeakFrontier = std::max(PeakFrontier, S.Perf.PeakFrontier);
    PeakQueue = std::max(PeakQueue, S.Perf.PeakQueue);
    Donations += S.Perf.Donations;
  }

  void write(JsonWriter &J) const {
    J.beginObject();
    J.field("scenarios", Scenarios);
    J.field("truncated", Truncated);
    J.field("executions", Executions);
    J.field("completed", Completed);
    J.field("races", Races);
    J.field("deadlocks", Deadlocks);
    J.field("violations", Violations);
    J.field("sleep_pruned", SleepPruned);
    J.field("rf_pruned", RfPruned);
    J.field("source_pruned", SourcePruned);
    J.field("cache_hits", CacheHits);
    J.field("max_depth", MaxDepth);
    J.field("lin_aborts", LinAborts);
    J.field("steps_executed", StepsExecuted);
    J.field("steps_logical", StepsLogical);
    J.field("cow_resumes", CowResumes);
    J.field("root_runs", RootRuns);
    J.field("peak_frontier", PeakFrontier);
    J.field("peak_queue", PeakQueue);
    J.field("donations", Donations);
    J.endObject();
  }
};

/// FNV-1a over 64-bit words, as SweepReport::fingerprint mixes them.
struct Fold {
  uint64_t H = 1469598103934665603ull;
  void mix(uint64_t V) {
    for (unsigned I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 1099511628211ull;
    }
  }
  std::string hex() const {
    char Buf[24];
    std::snprintf(Buf, sizeof Buf, "0x%016llx",
                  static_cast<unsigned long long>(H));
    return Buf;
  }
};

//===----------------------------------------------------------------------===//
// Result
//===----------------------------------------------------------------------===//

struct Run {
  double TReady = 0;    ///< Monotonic time of the first exploration call.
  double GenS = 0;      ///< Input generation time (inside set-up).
  double WallS = 0, CpuS = 0;
  std::vector<double> TaskMs;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures; ///< First few, for the log.
  std::vector<Span> Spans;
  /// Wall time of the explore spans multiplied by workers.
  double ExploreWorkerS = 0;
  JsonWriter Detail;    ///< Mode-specific fields (one JSON object).

  void fail(const std::string &Why) {
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(Why);
  }
};

//===----------------------------------------------------------------------===//
// explore: the sweep and oracle workloads
//===----------------------------------------------------------------------===//

struct ScenarioRef {
  Lib L;
  unsigned Index;
  Scenario S;
  Mutation Mut;
};

/// The stratum of a scenario: the multiset of its threads' op-code
/// multisets. Tree size grows steeply with the ops per thread and with the
/// number of each kind of op; the order of the ops, their values and the
/// thread order are left to the seed.
using Shape = std::vector<std::vector<unsigned>>;

Shape shapeOf(const Scenario &S) {
  Shape K;
  for (const std::vector<Op> &T : S.Threads) {
    std::vector<unsigned> Codes;
    for (Op O : T)
      Codes.push_back(static_cast<unsigned>(O.Code));
    std::sort(Codes.begin(), Codes.end());
    K.push_back(std::move(Codes));
  }
  std::sort(K.begin(), K.end());
  return K;
}

/// Library \p L's scenarios for one run: a stratified sample. The run keeps
/// the scenarios of its own stream, in order, that fill a quota per shape
/// taken from the first --size scenarios of the default seed's stream.
/// Every seed then explores the same shape mix, so the seed changes which
/// scenarios run but hardly how much work they are. On the default seed
/// the sample is exactly the stream's first scenarios, as runSweep draws
/// them.
void drawScenarios(const Config &C, Lib L, Run &R,
                   std::vector<ScenarioRef> &Out) {
  const WorkloadSpec &W = *C.W;
  Mutation M = C.Mut != Mutation::None && mutationLib(C.Mut) == L
                   ? C.Mut
                   : Mutation::None;
  auto Gen = [&](uint64_t Seed, unsigned I) {
    return generateScenario(L, scenarioSeed(Seed + W.StreamOffset, L, I),
                            W.Gen);
  };
  std::map<Shape, unsigned> Quota;
  for (unsigned I = 0; I != C.Size; ++I)
    ++Quota[shapeOf(Gen(DefaultSeed, I))];
  unsigned Kept = 0;
  // Every shape is common enough to fill well within this bound; it only
  // keeps a broken generator from looping forever.
  for (unsigned I = 0; Kept != C.Size && I != 1000 * C.Size; ++I) {
    Scenario S = Gen(C.Seed, I);
    auto It = Quota.find(shapeOf(S));
    if (It == Quota.end() || It->second == 0)
      continue;
    --It->second;
    ++Kept;
    Out.push_back({L, I, std::move(S), M});
  }
  if (Kept != C.Size)
    R.fail(std::string(libName(L)) + ": filled " + std::to_string(Kept) +
           " of " + std::to_string(C.Size) + " stratified slots");
}

void runExplore(const Config &C, Run &R) {
  const WorkloadSpec &W = *C.W;
  double G0 = monoNow();
  std::vector<ScenarioRef> Tasks;
  for (unsigned Li = 0; Li != NumLibs; ++Li)
    drawScenarios(C, allLibs()[Li], R, Tasks);
  R.GenS = monoNow() - G0;
  if (C.SetupOnly) {
    R.TReady = monoNow();
    return;
  }

  // Per-task results are folded as they arrive, so the process holds the
  // inputs but no per-scenario summaries.
  Tracer Tr;
  Counters Exh, Trunc;
  std::vector<Counters> LibSum(NumLibs);
  std::vector<Fold> LibFold(NumLibs);
  Fold All;
  R.TReady = monoNow();
  double Cpu0 = cpuNow();
  for (unsigned T = 0; T != Tasks.size(); ++T) {
    const ScenarioRef &Ref = Tasks[T];
    auto Lin = std::make_shared<std::atomic<uint64_t>>(0);
    sim::Workload Wl =
        makeWorkload(Ref.S, Ref.Mut,
                     scenarioOptions(Ref.S, W.Cap, W.Workers, W.Red), Lin);
    if (C.Trace)
      Wl = Tr.wrap(Wl);
    double T0 = monoNow(), Cpu1 = cpuNow();
    sim::Explorer::Summary S = sim::explore(Wl);
    double T1 = monoNow(), Cpu2 = cpuNow();
    R.TaskMs.push_back((T1 - T0) * 1e3);
    if (C.Trace) {
      R.ExploreWorkerS += (T1 - T0) * W.Workers;
      R.Spans.push_back({T, "search", Ref.S.str(), T0, T1, Cpu2 - Cpu1,
                         Tr.collect(), S.Executions});
    }

    // Verdict, and the deterministic/best-effort split. A truncated tree
    // is an incomplete verdict, so it fails the task too.
    ++R.Attempted;
    std::string Id =
        std::string(libName(Ref.L)) + "#" + std::to_string(Ref.Index) + ": ";
    if (S.Violations || S.Races || S.Deadlocks)
      R.fail(Id + "violation in " +
             (Ref.Mut == Mutation::None ? "pristine" : "mutated") +
             " library: " + Ref.S.str());
    else if (!S.Exhausted)
      R.fail(Id + "truncated at the execution cap: " + Ref.S.str());
    unsigned Li = static_cast<unsigned>(Ref.L);
    (S.Exhausted ? Exh : Trunc).add(S, Lin->load());
    LibSum[Li].add(S, Lin->load());
    if (!S.Exhausted)
      continue;
    for (Fold *F : {&LibFold[Li], &All}) {
      F->mix(Li);
      F->mix(Ref.Index);
      F->mix(S.Exhausted);
      F->mix(S.Executions);
      F->mix(S.Completed);
      F->mix(S.MaxDepth);
    }
  }
  R.WallS = monoNow() - R.TReady;
  R.CpuS = cpuNow() - Cpu0;

  JsonWriter &J = R.Detail;
  J.key("exhausted");
  Exh.write(J);
  J.key("truncated");
  Trunc.write(J);
  J.field("fold", All.hex());
  J.key("lib_folds");
  J.beginObject();
  for (unsigned Li = 0; Li != NumLibs; ++Li)
    J.field(libName(allLibs()[Li]), LibFold[Li].hex());
  J.endObject();

  if (C.CompareRunSweep) {
    // The per-scenario loop must reproduce runSweep's per-library totals.
    // runSweep draws each stream's first scenarios, which is the sample
    // only on the default seed.
    if (C.Seed != DefaultSeed)
      usage("--compare-runsweep needs the default seed");
    SweepOptions O;
    O.Seed = C.Seed + W.StreamOffset;
    O.ScenariosPerLib = C.Size;
    O.Workers = W.Workers;
    O.MaxExecutionsPerScenario = W.Cap;
    O.Reduction = W.Red;
    O.Gen = W.Gen;
    SweepReport Rep = runSweep(O);
    bool Agree = Rep.PerLib.size() == NumLibs;
    for (unsigned Li = 0; Agree && Li != NumLibs; ++Li) {
      const Counters &Mine = LibSum[Li];
      const LibSweepStats &St = Rep.PerLib[Li];
      Agree = St.L == allLibs()[Li] && St.Scenarios == Mine.Scenarios &&
              St.Executions == Mine.Executions &&
              St.Completed == Mine.Completed && St.Races == Mine.Races &&
              St.Deadlocks == Mine.Deadlocks &&
              St.Violations == Mine.Violations &&
              St.SleepPruned == Mine.SleepPruned &&
              St.SourcePruned == Mine.SourcePruned &&
              St.MaxDepth == Mine.MaxDepth && St.Truncated == Mine.Truncated;
    }
    J.field("runsweep_agrees", Agree);
    if (!Agree)
      R.fail("per-scenario loop disagrees with runSweep's per-library "
             "totals");
  }
}

//===----------------------------------------------------------------------===//
// hunt: every mutation over a range of hunt seeds
//===----------------------------------------------------------------------===//

struct HuntTask {
  Mutation Mut;
  uint64_t Seed;
};

struct HuntOutcome {
  bool Killed = false;
  unsigned Index = 0; ///< Scenario index of the kill.
  ShrinkResult Shrunk;
};

/// huntMutant's steps, composed so search and shrink can be timed apart:
/// a serial StopOnViolation search per scenario (scenarioFails), then the
/// shrinker. Bodies are wrapped, so the search's closures are traced too.
HuntOutcome composeHunt(const HuntTask &T, const MutationOptions &O,
                        Tracer &Tr, unsigned TaskId, Run &R,
                        Counters &Search) {
  HuntOutcome Out;
  Lib L = mutationLib(T.Mut);
  std::string What =
      std::string(mutationName(T.Mut)) + "@" + std::to_string(T.Seed);
  Span Sp{TaskId, "search", What, monoNow(), 0, cpuNow(), {}, 0};
  std::vector<unsigned> Trace;
  Scenario Killer;
  for (unsigned I = 0; I != O.MaxScenarios && !Out.Killed; ++I) {
    Scenario S =
        generateScenario(L, scenarioSeed(T.Seed, L, I), GenOptions::hunting());
    sim::Explorer::Options Opts =
        scenarioOptions(S, O.MaxExecutionsPerScenario, 1, O.Reduction);
    Opts.StopOnViolation = true;
    sim::Explorer::Summary Sum =
        sim::exploreSerial(Tr.wrap(makeWorkload(S, T.Mut, Opts)));
    Search.add(Sum);
    Sp.Execs += Sum.Executions;
    if (Sum.HasViolation) {
      Out.Killed = true;
      Out.Index = I;
      Trace = Sum.firstViolationDecisions();
      Killer = S;
    }
  }
  Sp.End = monoNow();
  Sp.Cpu = cpuNow() - Sp.Cpu;
  Sp.Children = Tr.collect();
  R.ExploreWorkerS += Sp.End - Sp.Start;
  R.Spans.push_back(Sp);
  if (!Out.Killed)
    return Out;
  // The shrinker's explorations run inside the library, unwrapped: the
  // span has no children.
  Span Sh{TaskId, "shrink", What, monoNow(), 0, cpuNow(), {}, 0};
  Out.Shrunk = shrinkCounterexample(Killer, T.Mut, Trace, O.Shr);
  Sh.End = monoNow();
  Sh.Cpu = cpuNow() - Sh.Cpu;
  R.Spans.push_back(std::move(Sh));
  return Out;
}

void runHunt(const Config &C, Run &R) {
  const WorkloadSpec &W = *C.W;
  double G0 = monoNow();
  // Hunt seeds Seed*Size+1 .. (Seed+1)*Size, so consecutive --seed values
  // never share a hunt.
  std::vector<HuntTask> Tasks;
  for (unsigned M = 1; M != NumMutations; ++M) // Skip None.
    for (unsigned K = 1; K <= C.Size; ++K)
      Tasks.push_back({static_cast<Mutation>(M), C.Seed * C.Size + K});
  R.GenS = monoNow() - G0;
  if (C.SetupOnly) {
    R.TReady = monoNow();
    return;
  }

  MutationOptions O;
  O.MaxExecutionsPerScenario = W.Cap;
  O.Shr.MaxExecutionsPerCandidate = W.ShrinkCap;
  O.Reduction = W.Red;
  Tracer Tr;
  Counters Search;
  std::vector<HuntOutcome> Outs;
  Outs.reserve(Tasks.size());
  R.TReady = monoNow();
  double Cpu0 = cpuNow();
  for (unsigned T = 0; T != Tasks.size(); ++T) {
    double T0 = monoNow();
    if (C.Trace) {
      Outs.push_back(composeHunt(Tasks[T], O, Tr, T, R, Search));
    } else {
      O.Seed = Tasks[T].Seed;
      MutantReport Rep = huntMutant(Tasks[T].Mut, O);
      Outs.push_back({Rep.Killed, Rep.ScenariosTried - 1, Rep.Shrunk});
    }
    R.TaskMs.push_back((monoNow() - T0) * 1e3);
  }
  R.WallS = monoNow() - R.TReady;
  R.CpuS = cpuNow() - Cpu0;

  // Gates: every mutant killed, and its shrunk repro still fails on replay.
  JsonWriter &J = R.Detail;
  J.key("kills");
  J.beginArray();
  uint64_t Candidates = 0;
  for (unsigned T = 0; T != Tasks.size(); ++T) {
    const HuntOutcome &H = Outs[T];
    ++R.Attempted;
    std::string Id = std::string(mutationName(Tasks[T].Mut)) + "@" +
                     std::to_string(Tasks[T].Seed);
    if (!H.Killed) {
      R.fail(Id + ": mutant survived");
      J.value("survived");
      continue;
    }
    Candidates += H.Shrunk.CandidatesTried;
    TraceDiagnosis D =
        diagnoseTrace(H.Shrunk.Min, Tasks[T].Mut,
                      scenarioOptions(H.Shrunk.Min, 1, 1), H.Shrunk.Decisions);
    if (!D.failing())
      R.fail(Id + ": shrunk replay passes: " + H.Shrunk.Min.str());
    // The kill's identity, compared by run.py between the untraced
    // huntMutant run and the traced composition.
    std::ostringstream K;
    K << H.Index << " | " << H.Shrunk.Min.str() << " |";
    for (unsigned Dec : H.Shrunk.Decisions)
      K << ' ' << Dec;
    J.value(K.str());
  }
  J.endArray();
  J.field("shrink_candidates", Candidates);
  if (C.Trace) {
    J.key("search");
    Search.write(J);
  }
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

void writeLayers(JsonWriter &J, const Run &R, const TimerCost &K) {
  // Explore spans only: a hunt's shrink span runs unwrapped explorations
  // inside the library and is reported as its wall time.
  BodyCost Calls;
  SpanSplit Sum{0, 0, 0, 0, 0, 0};
  double Cpu = 0, SearchS = 0, ShrinkS = 0;
  // The gate's quantity: span CPU minus the closures' raw thread-CPU
  // readings. Every closure runs inside its span on some thread, so this
  // cannot be negative unless closures are counted wrong; the calibrated
  // self time can dip below zero on a tiny span when the timer estimate
  // is high.
  double MinRawSelf = R.Spans.empty() ? 0 : HUGE_VAL;
  for (const Span &S : R.Spans) {
    if (std::strcmp(S.Name, "search")) {
      ShrinkS += S.End - S.Start;
      continue;
    }
    SearchS += S.End - S.Start;
    SpanSplit P = split(S, K);
    Calls.add(S.Children);
    Cpu += S.Cpu;
    Sum.Setup += P.Setup;
    Sum.Check += P.Check;
    Sum.Save += P.Save;
    Sum.Restore += P.Restore;
    Sum.Tracer += P.Tracer;
    Sum.Self += P.Self;
    const BodyCost &B = S.Children;
    double Raw = (B.SetupNs + B.CheckNs + B.SaveNs + B.RestoreNs) * 1e-9;
    MinRawSelf = std::min(MinRawSelf, S.Cpu - Raw);
  }
  J.key("body");
  J.beginObject();
  J.field("setup_calls", Calls.SetupCalls);
  J.field("setup_s", Sum.Setup);
  J.field("check_calls", Calls.CheckCalls);
  J.field("check_done", Calls.CheckDone);
  J.field("check_s", Sum.Check);
  J.field("save_calls", Calls.SaveCalls);
  J.field("save_s", Sum.Save);
  J.field("restore_calls", Calls.RestoreCalls);
  J.field("restore_s", Sum.Restore);
  J.field("tracer_s", Sum.Tracer);
  J.field("timer_inside_ns", K.Inside);
  J.field("timer_total_ns", K.Total);
  J.field("explore_cpu_s", Cpu);
  J.field("explore_worker_s", R.ExploreWorkerS);
  J.field("self_s", Sum.Self);
  J.field("min_span_raw_self_s", MinRawSelf);
  J.endObject();
  J.field("search_s", SearchS);
  J.field("shrink_s", ShrinkS);
}

void writeSpans(const std::string &Path, const Run &R, const TimerCost &K) {
  std::ofstream OS(Path);
  for (const Span &S : R.Spans) {
    SpanSplit P = split(S, K);
    JsonWriter J;
    J.beginObject();
    J.field("task", S.Task);
    J.field("name", S.Name);
    J.field("what", S.What);
    J.field("execs", S.Execs);
    J.field("start", S.Start);
    J.field("end", S.End);
    J.field("cpu_s", S.Cpu);
    J.field("setup_s", P.Setup);
    J.field("check_s", P.Check);
    J.field("save_s", P.Save);
    J.field("restore_s", P.Restore);
    J.field("tracer_s", P.Tracer);
    J.field("self_s", P.Self);
    J.endObject();
    OS << J.str() << "\n";
  }
  if (!OS)
    std::cerr << "perfbench: cannot write " << Path << "\n";
}

} // namespace

int main(int Argc, char **Argv) {
  Config C = parseArgs(Argc, Argv);
  Run R;
  R.Detail.beginObject();
  if (C.W->Hunt)
    runHunt(C, R);
  else
    runExplore(C, R);
  R.Detail.endObject();
  TimerCost K = C.Trace ? calibrate() : TimerCost{};
  if (!C.SpansPath.empty())
    writeSpans(C.SpansPath, R, K);

  JsonWriter J;
  J.beginObject();
  J.field("t_ready", R.TReady);
#ifdef NDEBUG
  J.field("ndebug", true);
#else
  J.field("ndebug", false);
#endif
  J.field("size", C.Size);
  J.field("workers", C.W->Workers);
  J.field("gen_s", R.GenS);
  if (!C.SetupOnly) {
    J.field("wall_s", R.WallS);
    J.field("cpu_s", R.CpuS);
    J.field("peak_rss_mb", peakRssMb());
    J.field("attempted", R.Attempted);
    J.field("failed", R.Failed);
    J.key("failures");
    J.beginArray();
    for (const std::string &F : R.Failures)
      J.value(F);
    J.endArray();
    J.key("task_ms");
    J.beginArray();
    for (double Ms : R.TaskMs)
      J.value(Ms);
    J.endArray();
    J.key("detail");
    J.raw(R.Detail.str());
    if (C.Trace)
      writeLayers(J, R, K);
  }
  J.endObject();
  std::cout << J.str() << "\n";
  return 0;
}
