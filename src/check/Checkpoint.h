//===-- check/Checkpoint.h - Resumable conformance sweeps -------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-resilient checkpoint/resume for the conformance sweep (DESIGN.md
/// Section 9). A SweepCheckpoint freezes an in-flight runSweep at a
/// scenario-segment boundary:
///
///  * the full sweep configuration (seed, bounds, libraries, reduction) so
///    a resumed run regenerates the identical scenario stream — only the
///    worker count may change between segments;
///  * the deterministic progress so far: the FNV fingerprint accumulator,
///    per-library aggregates, and the position (library, scenario) of the
///    next unit of work;
///  * when the interrupt landed mid-scenario, the embedded
///    sim::ExplorationSnapshot of that scenario's unexplored frontier plus
///    its executed partial core and linearization-abort count.
///
/// Because the exploration snapshot's frontier partitions the scenario's
/// decision tree and every fingerprint contribution is a function of
/// complete scenario summaries, finishing a checkpoint — at any worker
/// count, interrupted any number of times — produces the bit-identical
/// SweepReport fingerprint of an uninterrupted run.
///
/// runSweepResumable drives the machinery: cooperative interruption from a
/// signal flag, a wall-clock time budget, and periodic checkpoint cadences
/// (by executions or seconds; cadence checkpoints are written via callback
/// and the sweep continues in-process). serializeSweepCheckpoint /
/// parseSweepCheckpoint give checkpoints a versioned line-oriented text
/// form ("compass sweep-checkpoint v3") embedding the snapshot grammar of
/// sim/Checkpoint.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_CHECK_CHECKPOINT_H
#define COMPASS_CHECK_CHECKPOINT_H

#include "check/Conformance.h"
#include "sim/Checkpoint.h"

#include <atomic>
#include <functional>
#include <string>
#include <string_view>

namespace compass::check {

class Telemetry;

/// The resumable state of one interrupted conformance sweep; see file
/// comment. Produced by runSweepResumable, persisted with
/// serializeSweepCheckpoint.
struct SweepCheckpoint {
  // -- Configuration (restored on resume; Workers free to change) -------
  uint64_t Seed = 1;
  unsigned ScenariosPerLib = 50;
  uint64_t MaxExecutionsPerScenario = 200000;
  /// Recorded so a resume cannot silently continue under a different mode
  /// than the one that produced the executed share.
  sim::ReductionMode Reduction = sim::ReductionMode::SourceSet;
  std::vector<Lib> Libs; ///< Resolved library list (never empty).
  GenOptions Gen;

  // -- Progress ---------------------------------------------------------
  uint64_t Fp = 0;            ///< SweepReport fingerprint accumulator.
  size_t LibIndex = 0;        ///< Position: current library in Libs.
  unsigned ScenarioIndex = 0; ///< Position: current scenario in LibIndex.
  std::vector<LibSweepStats> DoneLibs; ///< Completed libraries, in order.
  LibSweepStats CurLib; ///< Partial aggregate of Libs[LibIndex].

  // -- In-flight scenario (when the interrupt landed mid-exploration) ---
  bool HasScenario = false;
  uint64_t ScenarioLinAborts = 0; ///< Lin aborts of the executed share.
  sim::ExplorationSnapshot Scenario;

  /// Sweep executions already performed: the completed libraries, the
  /// current library's finished scenarios, and the in-flight scenario's
  /// executed share.
  uint64_t executions() const {
    uint64_t N = CurLib.Executions;
    for (const LibSweepStats &St : DoneLibs)
      N += St.Executions;
    return N + (HasScenario ? Scenario.Partial.Executions : 0);
  }
};

/// Serializes \p C in a versioned line-oriented text format (grammar in
/// Checkpoint.cpp; embeds sim::serializeSnapshot output).
std::string serializeSweepCheckpoint(const SweepCheckpoint &C);

/// Parses serializeSweepCheckpoint output. On failure returns false and
/// sets \p Err; \p Out is left in an unspecified state.
bool parseSweepCheckpoint(std::string_view Text, SweepCheckpoint &Out,
                          std::string &Err);

/// External control over a resumable sweep. Default-constructed =
/// uninterruptible (plain runSweep behavior).
struct SweepControl {
  /// Cooperative interrupt, typically set from a SIGINT/SIGTERM handler.
  /// Once true, the in-flight scenario drains into a checkpoint and
  /// runSweepResumable returns with Interrupted set.
  const std::atomic<bool> *StopRequested = nullptr;

  /// >0: graceful cutoff — checkpoint and return once this much wall time
  /// (seconds) has elapsed.
  double TimeBudgetSec = 0;

  /// >0: invoke OnCheckpoint roughly every N sweep executions; the sweep
  /// then continues in-process. Approximate trip points, exact state.
  uint64_t CheckpointEveryExecs = 0;

  /// >0: invoke OnCheckpoint roughly every interval (seconds).
  double CheckpointEverySec = 0;

  /// Cadence sink (required for the cadences to be useful; the *final*
  /// state of an interrupted run is returned in SweepResult::Ckpt, not
  /// passed here).
  std::function<void(const SweepCheckpoint &)> OnCheckpoint;

  /// Optional JSONL telemetry sink (heartbeats + violation records).
  Telemetry *Telem = nullptr;
  double HeartbeatIntervalSec = 1.0;
};

/// Result of one (possibly interrupted) sweep run.
struct SweepResult {
  SweepReport Rep;         ///< Final report; meaningful when !Interrupted.
  bool Interrupted = false;
  SweepCheckpoint Ckpt;    ///< Resumable state; valid when Interrupted.
};

/// runSweep with cooperative interruption and resume. Pass \p Resume to
/// continue a previous checkpoint (its configuration wins over \p O except
/// for Workers). The completed report's fingerprint is bit-identical to an
/// uninterrupted runSweep(O) at any worker count and any interrupt/resume
/// segmentation.
SweepResult runSweepResumable(const SweepOptions &O, const SweepControl &C,
                              const SweepCheckpoint *Resume = nullptr);

} // namespace compass::check

#endif // COMPASS_CHECK_CHECKPOINT_H
