//===-- check/Checkpoint.h - Resumable conformance sweeps -------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash-resilient checkpoint/resume for the conformance sweep (DESIGN.md
/// Section 9). The sweep folds finished scenarios in scenario order, and a
/// SweepCheckpoint records what has finished:
///
///  * the full sweep configuration (seed, bounds, libraries, reduction) so
///    a resumed run regenerates the identical scenario stream — only the
///    worker count may change between segments;
///  * the folded prefix: the FNV fingerprint accumulator, per-library
///    aggregates, and the position (library, scenario) of the first
///    scenario not yet folded;
///  * the scenarios past the position that finished while an earlier one
///    was still running, one FinishedScenario each.
///
/// A scenario is explored by one worker from its root and is kept only
/// once it finishes, so a checkpoint never holds a half-explored tree: a
/// resume folds the finished scenarios and re-runs from the root the ones
/// that were in flight when the run stopped. Finishing a checkpoint — at
/// any worker count, interrupted any number of times — therefore produces
/// the report of an uninterrupted run.
///
/// runSweepResumable drives the machinery: cooperative interruption from a
/// signal flag, a wall-clock time budget, and periodic checkpoint cadences
/// (by executions or seconds; cadence checkpoints are written via callback
/// and the sweep continues in-process). serializeSweepCheckpoint /
/// parseSweepCheckpoint give checkpoints a versioned line-oriented text
/// form ("compass sweep-checkpoint v4").
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_CHECK_CHECKPOINT_H
#define COMPASS_CHECK_CHECKPOINT_H

#include "check/Conformance.h"

#include <atomic>
#include <functional>
#include <string>
#include <string_view>

namespace compass::check {

class Telemetry;

/// A scenario explored to the end: what the sweep's fold reads of its
/// exploration.
struct FinishedScenario {
  size_t Index = 0; ///< Position in sweep order (library-major).
  /// This scenario alone: Scenarios is 1 and Truncated is 1 unless its
  /// tree was exhausted; the first-violation fields are unused.
  LibSweepStats Stats;
  /// Decisions of its first violating execution (when Stats.Violations).
  std::vector<unsigned> FirstViolation;
};

/// The resumable state of one interrupted conformance sweep; see file
/// comment. Produced by runSweepResumable, persisted with
/// serializeSweepCheckpoint.
struct SweepCheckpoint {
  // -- Configuration (restored on resume; Workers free to change) -------
  uint64_t Seed = 1;
  unsigned ScenariosPerLib = 50;
  uint64_t MaxExecutionsPerScenario = 200000;
  /// Recorded so a resume cannot silently continue under a different mode
  /// than the one that produced the folded scenarios.
  sim::ReductionMode Reduction = sim::ReductionMode::SourceSet;
  std::vector<Lib> Libs; ///< Resolved library list (never empty).
  GenOptions Gen;

  // -- Progress: the folded scenario prefix ---------------------------
  uint64_t Fp = 0;            ///< SweepReport fingerprint accumulator.
  size_t LibIndex = 0;        ///< Position: current library in Libs.
  unsigned ScenarioIndex = 0; ///< Position: current scenario in LibIndex.
  std::vector<LibSweepStats> DoneLibs; ///< Completed libraries, in order.
  LibSweepStats CurLib; ///< Folded scenarios of Libs[LibIndex].
  /// Scenarios past the position that finished ahead of the fold, in
  /// sweep order; a resume folds them instead of re-running them.
  std::vector<FinishedScenario> Ahead;

  /// Executions of the finished scenarios, folded and ahead: the work a
  /// resume does not repeat.
  uint64_t executions() const {
    uint64_t N = CurLib.Executions;
    for (const LibSweepStats &St : DoneLibs)
      N += St.Executions;
    for (const FinishedScenario &F : Ahead)
      N += F.Stats.Executions;
    return N;
  }
};

/// Serializes \p C in a versioned line-oriented text format (grammar in
/// Checkpoint.cpp).
std::string serializeSweepCheckpoint(const SweepCheckpoint &C);

/// Parses serializeSweepCheckpoint output. On failure returns false and
/// sets \p Err; \p Out is left in an unspecified state.
bool parseSweepCheckpoint(std::string_view Text, SweepCheckpoint &Out,
                          std::string &Err);

/// External control over a resumable sweep. Default-constructed =
/// uninterruptible (plain runSweep behavior).
struct SweepControl {
  /// Cooperative interrupt, typically set from a SIGINT/SIGTERM handler.
  /// Once true, no scenario starts, the in-flight ones stop after their
  /// current execution, and runSweepResumable returns with Interrupted set
  /// and the finished scenarios as its checkpoint.
  const std::atomic<bool> *StopRequested = nullptr;

  /// >0: graceful cutoff — once this much wall time (seconds) has elapsed,
  /// start no scenario and end the in-flight ones, then checkpoint and
  /// return. The first scenario a run claims (the head of the fold) is
  /// exempt and runs to its end, so every run folds at least one scenario
  /// and a chain of budgeted resumes always finishes.
  double TimeBudgetSec = 0;

  /// >0: invoke OnCheckpoint when a scenario finishes after every N
  /// further finished executions; the sweep then continues in-process.
  uint64_t CheckpointEveryExecs = 0;

  /// >0: invoke OnCheckpoint when a scenario finishes after every interval
  /// (seconds).
  double CheckpointEverySec = 0;

  /// Cadence sink (required for the cadences to be useful; the *final*
  /// state of an interrupted run is returned in SweepResult::Ckpt, not
  /// passed here).
  std::function<void(const SweepCheckpoint &)> OnCheckpoint;

  /// Optional JSONL telemetry sink (heartbeats + violation records).
  Telemetry *Telem = nullptr;
  /// A heartbeat is written when a finished scenario finds this many
  /// seconds passed since the last one (0: after every finished scenario).
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
/// for Workers). The completed report is identical to an uninterrupted
/// runSweep(O)'s, apart from Workers, at any worker count and any
/// interrupt/resume segmentation.
SweepResult runSweepResumable(const SweepOptions &O, const SweepControl &C,
                              const SweepCheckpoint *Resume = nullptr);

} // namespace compass::check

#endif // COMPASS_CHECK_CHECKPOINT_H
