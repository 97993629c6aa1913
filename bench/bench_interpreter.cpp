//===-- bench/bench_interpreter.cpp - Experiment E13 (stepping loop) ------===//
//
// Microbenchmarks of the Machine/Scheduler stepping loop itself, A/B-ing
// the copy-on-write execution engine (sim/Engine.h) against classic
// root replay on the fixed E2 MS-queue and E7 locked-queue workloads:
//
//  * ns/execution and ns/step for both engine paths, plus the fraction of
//    logical steps the snapshot/fast-forward path avoided re-executing;
//  * a deterministic-core equality check between the two paths (the same
//    invariant tests/ReductionTest.cpp pins) — a bench run that prints
//    core mismatch also exits nonzero, so CI smoke catches divergence;
//  * a google-benchmark row replaying one fixed decision sequence, the
//    raw single-execution interpreter cost with no exploration around it.
//
// Results are dumped to BENCH_interpreter.json for cross-PR tracking by
// scripts/bench_compare.py.
//
//===----------------------------------------------------------------------===//

#include "ExperimentUtil.h"
#include "lib/MsQueue.h"
#include "sim/Workload.h"
#include "spec/Consistency.h"
#include "support/Json.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace compass;
using namespace compass::rmc;
using namespace compass::sim;

namespace {

/// The fixed workload family: enq{1,2} against two single-element
/// dequeuers at preemption bound 2, over either queue implementation —
/// E2's MS queue (lock-free, CAS-heavy) or E7's locked queue (spin-lock
/// dominated, the reduction's best case).
Workload queueWorkload(bench::QueueImpl Impl, EnginePath Engine,
                       ReductionMode Red) {
  Explorer::Options Opts;
  Opts.PreemptionBound = 2;
  Opts.Reduction = Red;
  Opts.Engine = Engine;
  return Workload(Opts, [Impl]() -> Workload::Body {
    struct State {
      std::unique_ptr<spec::SpecMonitor> Mon;
      std::unique_ptr<lib::SimQueue> Q;
      std::vector<Value> Got0, Got1;
    };
    auto St = std::make_shared<State>();
    Workload::Body B{[St, Impl](Machine &M, Scheduler &S) {
                       if (!St->Mon)
                         St->Mon = std::make_unique<spec::SpecMonitor>();
                       St->Mon->beginExecution(M);
                       St->Q = bench::makeQueue(Impl, M, *St->Mon);
                       St->Got0.clear();
                       St->Got1.clear();
                       Env &E0 = S.newThread();
                       S.start(E0, bench::enqueuer(E0, *St->Q, {1, 2}));
                       Env &E1 = S.newThread();
                       S.start(E1, bench::dequeuer(E1, *St->Q, 1, &St->Got0));
                       Env &E2 = S.newThread();
                       S.start(E2, bench::dequeuer(E2, *St->Q, 1, &St->Got1));
                     },
                     [St](Machine &, Scheduler &, Scheduler::RunResult R) {
                       if (R != Scheduler::RunResult::Done)
                         return true;
                       return spec::checkQueueConsistent(St->Mon->graph(),
                                                         St->Q->objId())
                           .ok();
                     }};
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
    // The dequeuers' only client effects are the Got vectors (restored
    // above), so finished threads can be skipped during fast-forward.
    B.CowSkipFinished = true;
    return B;
  });
}

const char *implName(bench::QueueImpl I) {
  return I == bench::QueueImpl::Ms ? "MS queue (E2, pb=2)"
                                   : "locked queue (E7, pb=2)";
}

const char *engineName(EnginePath E) {
  return E == EnginePath::RootReplay ? "root-replay" : "cow";
}

const char *redName(ReductionMode R) {
  return R == ReductionMode::SourceSet ? "source-set" : "none";
}

struct Row {
  std::string Workload;
  EnginePath Engine;
  ReductionMode Red;
  Explorer::Summary Sum;
  double NsPerExec = 0;
  double NsPerStep = 0;   ///< Per *executed* step.
  double StepsAvoided = 0; ///< Fraction of logical steps not re-executed.
  double SpeedupVsRoot = 0;
  bool CoreMatch = true; ///< Deterministic core equals the root-replay run.
};

std::string fmtF(double V, const char *Fmt = "%.0f") {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), Fmt, V);
  return Buf;
}

/// Runs one workload/reduction cell under both engine paths and appends
/// the two rows (root-replay first). Returns false on core mismatch.
bool runCell(std::vector<Row> &Rows, bench::QueueImpl Impl,
             ReductionMode Red) {
  Explorer::Summary Root;
  bool Ok = true;
  for (EnginePath E : {EnginePath::RootReplay, EnginePath::Auto}) {
    Explorer::Summary Sum = exploreSerial(queueWorkload(Impl, E, Red));
    Row R{implName(Impl), E, Red, Sum};
    if (Sum.Executions) {
      R.NsPerExec = Sum.Perf.WallSeconds * 1e9 /
                    static_cast<double>(Sum.Executions);
      if (Sum.Perf.StepsExecuted)
        R.NsPerStep = Sum.Perf.WallSeconds * 1e9 /
                      static_cast<double>(Sum.Perf.StepsExecuted);
      if (Sum.Perf.StepsLogical)
        R.StepsAvoided =
            1.0 - static_cast<double>(Sum.Perf.StepsExecuted) /
                      static_cast<double>(Sum.Perf.StepsLogical);
    }
    if (E == EnginePath::RootReplay) {
      Root = Sum;
      R.SpeedupVsRoot = 1.0;
    } else {
      R.SpeedupVsRoot = Root.Perf.WallSeconds > 0 && Sum.Perf.WallSeconds > 0
                            ? Root.Perf.WallSeconds / Sum.Perf.WallSeconds
                            : 0.0;
      R.CoreMatch = Sum.coreEquals(Root);
      Ok = Ok && R.CoreMatch;
    }
    Rows.push_back(std::move(R));
  }
  return Ok;
}

void printTable(const std::vector<Row> &Rows) {
  std::printf("\nE13: stepping-loop engine A/B (serial; hardware threads "
              "available: %u)\n\n",
              std::thread::hardware_concurrency());
  bench::Table T({"workload", "engine", "reduction", "executions",
                  "execs/sec", "ns/exec", "ns/step", "steps avoided",
                  "resumes", "speedup", "core"});
  for (const Row &R : Rows)
    T.addRow({R.Workload, engineName(R.Engine), redName(R.Red),
              bench::fmtU64(R.Sum.Executions),
              fmtF(R.Sum.Perf.ExecsPerSec), fmtF(R.NsPerExec),
              fmtF(R.NsPerStep), fmtF(R.StepsAvoided * 100, "%.0f%%"),
              bench::fmtU64(R.Sum.Perf.CowResumes),
              fmtF(R.SpeedupVsRoot, "%.2fx"),
              R.CoreMatch ? "match" : "MISMATCH"});
  T.print();
}

void writeJson(const std::vector<Row> &Rows, const std::string &OutDir) {
  JsonWriter J;
  J.beginObject();
  J.field("experiment", "E13 stepping-loop engine microbenchmark");
  J.field("hardware_threads",
          static_cast<uint64_t>(std::thread::hardware_concurrency()));
  J.key("rows");
  J.beginArray();
  for (const Row &R : Rows) {
    J.beginObject();
    J.field("workload", R.Workload);
    J.field("engine", engineName(R.Engine));
    J.field("reduction", redName(R.Red));
    J.field("executions", R.Sum.Executions);
    J.field("wall_seconds", R.Sum.Perf.WallSeconds);
    J.field("execs_per_sec", R.Sum.Perf.ExecsPerSec);
    J.field("ns_per_exec", R.NsPerExec);
    J.field("ns_per_step", R.NsPerStep);
    J.field("steps_executed", R.Sum.Perf.StepsExecuted);
    J.field("steps_logical", R.Sum.Perf.StepsLogical);
    J.field("steps_avoided_frac", R.StepsAvoided);
    J.field("cow_resumes", R.Sum.Perf.CowResumes);
    J.field("root_runs", R.Sum.Perf.RootRuns);
    J.field("speedup_vs_root_replay", R.SpeedupVsRoot);
    J.field("core_match", R.CoreMatch);
    J.endObject();
  }
  J.endArray();
  J.endObject();
  std::string Path = OutDir + "/BENCH_interpreter.json";
  std::ofstream Out(Path);
  Out << J.str() << "\n";
  std::printf("\nwrote %s\n", Path.c_str());
}

//===----------------------------------------------------------------------===//
// Raw single-execution replay cost (no exploration)
//===----------------------------------------------------------------------===//

void bmReplayExecution(benchmark::State &State) {
  // Replays the all-zeros decision sequence of the MS-queue workload:
  // one fixed execution through the full interpreter (coroutines, view
  // machine, event recording), measured end to end.
  Workload W = queueWorkload(bench::QueueImpl::Ms, EnginePath::RootReplay,
                             ReductionMode::None);
  uint64_t Steps = 0;
  for (auto _ : State) {
    ReplayResult R = replay(W, {});
    benchmark::DoNotOptimize(R.CheckOk);
    Steps += R.Steps;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Steps));
  State.SetLabel("scheduler steps (fixed MS-queue execution)");
}

} // namespace

BENCHMARK(bmReplayExecution)->Iterations(2'000);

int main(int argc, char **argv) {
  std::string OutDir = bench::benchOutDir(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  std::vector<Row> Rows;
  bool Ok = true;
  for (bench::QueueImpl Impl :
       {bench::QueueImpl::Ms, bench::QueueImpl::Locked})
    for (ReductionMode Red : {ReductionMode::None, ReductionMode::SourceSet})
      Ok = runCell(Rows, Impl, Red) && Ok;
  printTable(Rows);
  writeJson(Rows, OutDir);
  if (!Ok) {
    std::fprintf(stderr, "FAIL: copy-on-write engine diverged from "
                         "root replay (deterministic core mismatch)\n");
    return 1;
  }
  return 0;
}
