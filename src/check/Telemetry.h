//===-- check/Telemetry.h - Structured JSONL run telemetry ------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured telemetry for long conformance runs (DESIGN.md Section 9):
/// one JSON object per line, appended to a file and flushed per record, so
/// an interrupted or killed run leaves a readable stream. Consumed by
/// scripts/telemetry_report.py.
///
/// Record kinds (every record carries "ts" — wall-clock epoch seconds —
/// and "elapsed" — seconds since the sink was opened):
///
///  * run_start   — sweep configuration (seed, workers, per_lib, libs,
///                  reduction, resumed flag + resumed base executions).
///  * heartbeat   — periodic progress, written when a sweep scenario
///                  finishes: the worker count, the executions per second
///                  of the scenarios this run finished, each worker's
///                  in-flight scenario ({lib, scenario}, or {idle: true}),
///                  and the cumulative counters of the folded scenarios
///                  (scenarios, executions, completed, races, deadlocks,
///                  violations, sleep_pruned, rf_pruned, source_pruned,
///                  truncated).
///  * violation   — a scenario whose exploration found a property
///                  violation: library, scenario index + description,
///                  verdict rule, and the replayable decision trace.
///  * checkpoint  — a checkpoint file was written: path, reason
///                  ("cadence", "signal", "time_budget"), executions.
///  * run_end     — final fingerprint, totals (executions, violations,
///                  truncated scenarios), interrupted flag.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_CHECK_TELEMETRY_H
#define COMPASS_CHECK_TELEMETRY_H

#include "check/Conformance.h"

#include <chrono>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace compass::check {

/// Append-only JSONL sink; see file comment. Thread-safe.
class Telemetry {
public:
  /// One sweep worker's in-flight scenario, for heartbeats; Lib is null
  /// while the worker is idle.
  struct InFlight {
    const char *Lib = nullptr;
    unsigned Scenario = 0;
  };

  /// Opens \p Path for appending. ok() is false when the file could not
  /// be opened; records are then dropped silently.
  explicit Telemetry(const std::string &Path);

  bool ok() const { return static_cast<bool>(Out); }
  const std::string &path() const { return Path; }

  void runStart(const SweepOptions &O, const std::vector<Lib> &Libs,
                bool Resumed, uint64_t BaseExecutions);

  /// \p Sweep totals the sweep's folded scenarios across libraries;
  /// \p Workers holds each worker's in-flight scenario.
  void heartbeat(double ExecsPerSec, const std::vector<InFlight> &Workers,
                 const LibSweepStats &Sweep);

  void violation(const char *LibName, unsigned ScenarioIndex,
                 const std::string &ScenarioStr, const std::string &Verdict,
                 const std::vector<unsigned> &Replay);

  void checkpoint(const std::string &CkptPath, const char *Reason,
                  uint64_t Executions);

  void runEnd(const SweepReport &Rep, bool Interrupted);

private:
  /// Appends one completed record line and flushes.
  void emit(const std::string &Body);
  double elapsed() const;

  std::string Path;
  std::ofstream Out;
  std::mutex Mu;
  std::chrono::steady_clock::time_point Start;
};

} // namespace compass::check

#endif // COMPASS_CHECK_TELEMETRY_H
