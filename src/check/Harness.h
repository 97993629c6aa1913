//===-- check/Harness.h - Scenario -> Workload instrumentation --*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a Scenario into a sim::Workload the explorer can run: a uniform
/// Container-style adapter instantiates the scenario's library (pristine,
/// or with one seeded lib::Mutation that the library applies itself),
/// per-thread coroutines execute the op lists while recording the
/// observed results, and the workload's Check closure hands every completed
/// execution's event graph plus observations to the reference model
/// (check/RefModel.h).
///
/// Observed-result encoding (Observed::Result):
///  * enq/push: the pushed value on success; 0 when an SPSC tryEnqueue
///    found the ring full; FailRaceVal when ElimStack rounds all failed;
///  * deq/pop/take/steal: the value, EmptyVal, or FailRaceVal (no event);
///  * exchange: the partner's value, or BottomVal on failure.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_CHECK_HARNESS_H
#define COMPASS_CHECK_HARNESS_H

#include "check/RefModel.h"
#include "check/Scenario.h"
#include "lib/ElimStack.h"
#include "lib/Exchanger.h"
#include "lib/HwQueue.h"
#include "lib/MsQueue.h"
#include "lib/SpscRing.h"
#include "lib/TreiberStack.h"
#include "lib/TreiberStackEbr.h"
#include "lib/WsDeque.h"
#include "sim/Workload.h"

#include <atomic>
#include <memory>

namespace compass::check {

/// Instantiates and drives one scenario's library (pristine or mutated).
class ContainerAdapter {
public:
  ContainerAdapter(const Scenario &S, Mutation Mut, rmc::Machine &M,
                   spec::SpecMonitor &Mon);

  /// Executes one op, returning the observed result (see file comment).
  sim::Task<rmc::Value> apply(sim::Env &E, Op O);

  /// Runs the reference-model pipeline over \p Mon's recorded graph. For
  /// the elimination stack the checked graph is first *derived* from the
  /// base stack's and exchanger's events (spec/Composition.h).
  Verdict verdict(const spec::SpecMonitor &Mon,
                  const std::vector<std::vector<Observed>> &Results,
                  spec::LinearizeLimits Limits) const;

  /// Object id under which the library commits its events (for checks that
  /// want to interrogate the recorded graph directly, e.g. the HW-queue
  /// spec-strength separation test).
  unsigned objId() const { return Obj; }

private:
  Lib L;
  // Exactly one of these is set, per L.
  std::unique_ptr<lib::SimQueue> Q;   ///< MsQueue or HwQueue.
  std::unique_ptr<lib::SimStack> Stk; ///< TreiberStack or TreiberStackEbr.
  std::unique_ptr<lib::ElimStack> Elim;
  std::unique_ptr<lib::Exchanger> Ex;
  std::unique_ptr<lib::SpscRing> Ring;
  std::unique_ptr<lib::WsDeque> Deq;
  unsigned Obj = 0; ///< Object id under which events are committed.
};

/// Per-body state shared between the workload closures and the caller;
/// lets the driver read the last execution's verdict after a replay.
struct RunState {
  Scenario S;
  Mutation Mut = Mutation::None;
  spec::LinearizeLimits Limits{200000};

  // Reset by Setup each execution:
  std::unique_ptr<spec::SpecMonitor> Mon;
  std::unique_ptr<ContainerAdapter> A;
  std::vector<std::vector<Observed>> Results;

  // Written by Check:
  Verdict LastVerdict;
  sim::Scheduler::RunResult LastRun = sim::Scheduler::RunResult::Done;
  uint64_t LinAborts = 0; ///< Accumulated linearization budget overruns.
  /// When set, budget overruns are also folded into this cross-worker
  /// counter (see makeWorkload).
  std::shared_ptr<std::atomic<uint64_t>> SharedLinAborts;
};

/// Exploration options tuned for \p S (preemption bound from the scenario,
/// a per-scenario execution budget, StopOnViolation off so summaries stay
/// worker-count independent). Verification defaults to the source-set
/// reduction (DESIGN.md Sections 8 and 12, the strongest mode with the
/// same verdicts); pass ReductionMode::SleepSet for the classic reduction
/// or ReductionMode::None for an unreduced baseline (e.g. when comparing
/// against pinned fingerprints of unreduced exploration).
sim::Explorer::Options
scenarioOptions(const Scenario &S, uint64_t MaxExecutions, unsigned Workers,
                sim::ReductionMode Red = sim::ReductionMode::SourceSet,
                sim::EnginePath Engine = sim::EnginePath::Auto);

/// A workload whose body is instantiated per worker (safe for parallel
/// exploration). Violations are executions whose reference-model verdict
/// fails, plus races/deadlocks/step-limit runs. When \p LinAborts is
/// non-null it accumulates, across all workers, the executions whose
/// linearization search hit its state budget (verdict unknown, treated as
/// pass).
sim::Workload makeWorkload(const Scenario &S, Mutation Mut,
                           sim::Explorer::Options Opts,
                           std::shared_ptr<std::atomic<uint64_t>> LinAborts =
                               nullptr);

/// A single-body workload that exposes its RunState, for replay +
/// diagnostics (the parallel-safe makeWorkload keeps its states private).
struct Instrumented {
  sim::Workload W;
  std::shared_ptr<RunState> State;
};
Instrumented makeInstrumented(const Scenario &S, Mutation Mut,
                              sim::Explorer::Options Opts);

/// Replays \p Decisions against an instrumented body and reports the
/// run result, the reference-model verdict, and the canonical executed
/// decision sequence (divergence-free replay input).
struct TraceDiagnosis {
  sim::ReplayResult RR;
  sim::Scheduler::RunResult Run = sim::Scheduler::RunResult::Done;
  Verdict V;
  std::vector<unsigned> Executed;

  /// True when the replayed execution violates the property.
  bool failing() const { return !RR.CheckOk; }
};
TraceDiagnosis diagnoseTrace(const Scenario &S, Mutation Mut,
                             sim::Explorer::Options Opts,
                             const std::vector<unsigned> &Decisions);

} // namespace compass::check

#endif // COMPASS_CHECK_HARNESS_H
