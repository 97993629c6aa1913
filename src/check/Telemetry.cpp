//===-- check/Telemetry.cpp - Structured JSONL run telemetry --------------===//

#include "check/Telemetry.h"

#include "support/Json.h"

#include <iomanip>
#include <sstream>

using namespace compass;
using namespace compass::check;

Telemetry::Telemetry(const std::string &P)
    : Path(P), Out(P, std::ios::app),
      Start(std::chrono::steady_clock::now()) {}

double Telemetry::elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

void Telemetry::emit(const std::string &Body) {
  std::lock_guard<std::mutex> L(Mu);
  if (!Out)
    return;
  Out << Body << '\n';
  Out.flush();
}

namespace {

/// Opens a record with the common envelope; callers add fields and call
/// endObject().
JsonWriter openRecord(const char *Kind, double Elapsed) {
  double Ts = std::chrono::duration<double>(
                  std::chrono::system_clock::now().time_since_epoch())
                  .count();
  JsonWriter J;
  J.beginObject();
  J.field("ts", Ts);
  J.field("elapsed", Elapsed);
  J.field("kind", Kind);
  return J;
}

} // namespace

void Telemetry::runStart(const SweepOptions &O, const std::vector<Lib> &Libs,
                         bool Resumed, uint64_t BaseExecutions) {
  JsonWriter J = openRecord("run_start", elapsed());
  J.field("seed", O.Seed);
  J.field("workers", O.Workers);
  J.field("per_lib", O.ScenariosPerLib);
  J.field("max_execs_per_scenario", O.MaxExecutionsPerScenario);
  J.field("reduction", sim::reductionModeName(O.Reduction));
  J.key("libs");
  J.beginArray();
  for (Lib L : Libs)
    J.value(libName(L));
  J.endArray();
  J.field("resumed", Resumed);
  J.field("base_executions", BaseExecutions);
  J.endObject();
  emit(J.str());
}

void Telemetry::heartbeat(double ExecsPerSec,
                          const std::vector<InFlight> &Workers,
                          const LibSweepStats &Sweep) {
  JsonWriter J = openRecord("heartbeat", elapsed());
  J.field("workers", static_cast<unsigned>(Workers.size()));
  J.field("execs_per_sec", ExecsPerSec);
  J.key("per_worker");
  J.beginArray();
  for (const InFlight &W : Workers) {
    J.beginObject();
    if (W.Lib) {
      J.field("lib", W.Lib);
      J.field("scenario", W.Scenario);
    } else {
      J.field("idle", true);
    }
    J.endObject();
  }
  J.endArray();
  J.key("sweep");
  J.beginObject();
  J.field("scenarios", Sweep.Scenarios);
  J.field("executions", Sweep.Executions);
  J.field("completed", Sweep.Completed);
  J.field("races", Sweep.Races);
  J.field("deadlocks", Sweep.Deadlocks);
  J.field("violations", Sweep.Violations);
  J.field("sleep_pruned", Sweep.SleepPruned);
  J.field("rf_pruned", Sweep.RfPruned);
  J.field("source_pruned", Sweep.SourcePruned);
  J.field("truncated", Sweep.Truncated);
  J.endObject();
  J.endObject();
  emit(J.str());
}

void Telemetry::violation(const char *LibName, unsigned ScenarioIndex,
                          const std::string &ScenarioStr,
                          const std::string &Verdict,
                          const std::vector<unsigned> &Replay) {
  JsonWriter J = openRecord("violation", elapsed());
  J.field("lib", LibName);
  J.field("scenario", ScenarioIndex);
  J.field("scenario_str", ScenarioStr);
  J.field("verdict", Verdict);
  J.key("replay");
  J.beginArray();
  for (unsigned D : Replay)
    J.value(D);
  J.endArray();
  J.endObject();
  emit(J.str());
}

void Telemetry::checkpoint(const std::string &CkptPath, const char *Reason,
                           uint64_t Executions) {
  JsonWriter J = openRecord("checkpoint", elapsed());
  J.field("path", CkptPath);
  J.field("reason", Reason);
  J.field("executions", Executions);
  J.endObject();
  emit(J.str());
}

void Telemetry::runEnd(const SweepReport &Rep, bool Interrupted) {
  JsonWriter J = openRecord("run_end", elapsed());
  {
    std::ostringstream FP;
    FP << "0x" << std::hex << Rep.fingerprint();
    J.field("fingerprint", FP.str());
  }
  J.field("executions", Rep.totalExecutions());
  J.field("violations", Rep.totalViolations());
  J.field("truncated", Rep.totalTruncated());
  J.field("interrupted", Interrupted);
  J.endObject();
  emit(J.str());
}
