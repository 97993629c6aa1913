//===-- sim/Workload.h - Bounded programs as first-class values -*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Workload bundles everything needed to model-check a bounded concurrent
/// program — the setup closure that allocates state and starts threads, the
/// per-execution property check, and the exploration options — into one
/// re-runnable value. This makes three things first-class:
///
///  - exploreSerial(W) / explore(W): run the workload to completion at one
///    worker or at Options::Workers workers (sim/ParallelExplorer.h); the
///    explore(Opts, Setup, Check) shorthand wraps a closure pair into a
///    one-worker Workload;
///  - replay(W, Decisions): deterministically re-execute ONE decision
///    sequence — the counterexample-reproduction entry point. Feed it
///    Summary::firstViolationDecisions() or Explorer::currentDecisions();
///  - per-worker instantiation: a Workload built from a BodyFactory gives
///    every parallel worker its own Setup/Check closures (and thus its own
///    captured state), so existing single-threaded harness code parallelizes
///    without locking.
///
/// The Check closure returns true when the execution satisfies the property;
/// false increments Summary::Violations and records the decision trace.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_WORKLOAD_H
#define COMPASS_SIM_WORKLOAD_H

#include "sim/Explorer.h"

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace compass::sim {

/// A bounded concurrent program plus exploration options; see file comment.
class Workload {
public:
  using SetupFn = std::function<void(rmc::Machine &, Scheduler &)>;
  /// Returns true when the execution satisfies the property.
  using CheckFn =
      std::function<bool(rmc::Machine &, Scheduler &, Scheduler::RunResult)>;

  /// Saves the body's client state (see Body) into the engine-owned slot,
  /// reusing its storage across saves. Called when the copy-on-write
  /// engine snapshots a decision boundary.
  using CowSaveFn = std::function<void(std::shared_ptr<void> &)>;
  /// Restores the state saved by CowSaveFn when the engine resumes from
  /// that boundary. Not called when no step ran since the boundary (the
  /// previous execution stopped at its pick), so Check must not change
  /// what CowSaveFn saves.
  using CowRestoreFn = std::function<void(const std::shared_ptr<void> &)>;

  /// One instantiation of the program body. Parallel workers each hold
  /// their own Body, so closures built by a factory may freely mutate the
  /// state they capture.
  ///
  /// Copy-on-write eligibility (sim/Engine.h): a resume restores the
  /// machine, the scheduler and the threads' coroutine frames, and runs
  /// neither Setup nor any step of the shared prefix again. A body whose
  /// threads change NO state after Setup outside the machine and their
  /// coroutine frames may set CowSafe. A body whose threads write other
  /// state — a result sink, a spec monitor, a library's C++ members —
  /// provides CowSave/CowRestore for all of it instead; the engine then
  /// snapshots and restores that state at decision boundaries. A sink left
  /// out is stale after a resume whenever the previous execution wrote it
  /// after the boundary. Bodies with neither run under the classic
  /// root-replay engine.
  struct Body {
    SetupFn Setup;
    CheckFn Check; ///< May be empty: every execution passes.
    bool CowSafe = false;
    CowSaveFn CowSave;
    CowRestoreFn CowRestore;
    /// Unread: a resume runs no step of the prefix, finished threads'
    /// included. Kept declared only for perfbench/perfbench.cpp, which
    /// copies it.
    bool CowSkipFinished = false;

    Body() = default;
    Body(SetupFn Setup, CheckFn Check = nullptr)
        : Setup(std::move(Setup)), Check(std::move(Check)) {}
  };

  /// Produces a fresh Body; invoked once per worker.
  using BodyFactory = std::function<Body()>;

  /// A workload with a single shared body. Safe for serial exploration and
  /// replay; for parallel exploration the closures must be thread-safe
  /// (prefer the BodyFactory constructor).
  Workload(Explorer::Options Opts, Body B)
      : Opts(Opts), Shared(std::move(B)) {}

  Workload(Explorer::Options Opts, SetupFn Setup, CheckFn Check = nullptr)
      : Workload(Opts, Body{std::move(Setup), std::move(Check)}) {}

  /// A workload whose body is instantiated per worker.
  Workload(Explorer::Options Opts, BodyFactory F)
      : Opts(Opts), Factory(std::move(F)) {}

  Explorer::Options &options() { return Opts; }
  const Explorer::Options &options() const { return Opts; }

  /// Instantiates a body for one worker (or for serial/replay use).
  Body makeBody() const { return Factory ? Factory() : Shared; }

private:
  Explorer::Options Opts;
  Body Shared;
  BodyFactory Factory;
};

/// Outcome of replaying one decision sequence.
struct ReplayResult {
  Scheduler::RunResult Run = Scheduler::RunResult::Done;
  bool CheckOk = true; ///< Result of the workload's Check (true if none).
  uint64_t Steps = 0;  ///< Scheduler steps taken.
  bool Diverged = false; ///< The program requested decisions beyond the
                         ///< supplied trace (nondeterministic replay).
};

namespace detail {

/// ChoiceSource that replays a fixed decision sequence. Decisions past the
/// end of the trace fall back to alternative 0 and set the divergence flag.
/// Every decision actually taken (including fallbacks and clamps) is
/// recorded, so callers can canonicalize a stale or truncated trace into
/// one that replays divergence-free.
class ReplayChoice final : public ChoiceSource {
public:
  explicit ReplayChoice(std::vector<unsigned> Decisions)
      : Decisions(std::move(Decisions)) {}

  // Replay runs unreduced, so the enumeration limit always equals Count.
  unsigned choose(unsigned Count, unsigned, ChoiceKind) override {
    unsigned Pick = 0;
    if (Pos >= Decisions.size()) {
      DivergedPastEnd = true;
    } else {
      Pick = Decisions[Pos++];
      if (Pick >= Count) {
        // The trace does not fit this program (arity shrank); clamp rather
        // than crash so replays of slightly stale traces still run.
        DivergedPastEnd = true;
        Pick = Count - 1;
      }
    }
    Recorded.push_back(Pick);
    return Pick;
  }

  bool diverged() const { return DivergedPastEnd; }

  /// The decisions actually taken during the run, in order.
  const std::vector<unsigned> &recorded() const { return Recorded; }

private:
  std::vector<unsigned> Decisions;
  std::vector<unsigned> Recorded;
  size_t Pos = 0;
  bool DivergedPastEnd = false;
};

} // namespace detail

/// Deterministically re-executes the single decision sequence \p Decisions
/// of \p W — the counterexample reproduction entry point. The sequence is
/// the plain-index form produced by Explorer::currentDecisions() or
/// Summary::firstViolationDecisions(). When \p ExecutedOut is non-null it
/// receives the decisions actually taken (fallbacks/clamps included), a
/// canonical trace that replays the same execution divergence-free.
inline ReplayResult replay(const Workload &W,
                           const std::vector<unsigned> &Decisions,
                           std::vector<unsigned> *ExecutedOut = nullptr) {
  detail::ReplayChoice Choice(Decisions);
  Workload::Body Body = W.makeBody();
  rmc::Machine M(Choice);
  Scheduler S(M, Choice);
  S.setPreemptionBound(W.options().PreemptionBound);
  Body.Setup(M, S);
  ReplayResult Out;
  Out.Run = S.run(W.options().MaxStepsPerExec);
  Out.Steps = S.steps();
  if (Body.Check)
    Out.CheckOk = Body.Check(M, S, Out.Run);
  Out.Diverged = Choice.diverged();
  if (ExecutedOut)
    *ExecutedOut = Choice.recorded();
  return Out;
}

/// Renders \p Decisions as a copy-pasteable C++ call — paste it next to the
/// workload definition to re-execute a reported counterexample:
///   sim::replay(W, {0,1,2});
inline std::string formatReplayCall(const std::vector<unsigned> &Decisions,
                                    const char *WorkloadName = "W") {
  std::string Out = "sim::replay(";
  Out += WorkloadName;
  Out += ", {";
  for (size_t I = 0; I != Decisions.size(); ++I) {
    if (I)
      Out += ',';
    Out += std::to_string(Decisions[I]);
  }
  Out += "});";
  return Out;
}

/// Runs \p W to completion at one worker, on the calling thread, whatever
/// Options::Workers says; the copy-on-write engine re-establishes state
/// between executions when the workload is eligible (see Body and
/// sim/Engine.h). Defined in ParallelExplorer.cpp.
Explorer::Summary exploreSerial(const Workload &W);

/// Runs \p W to completion at Options::Workers workers, the calling thread
/// among them (exploreResumable without controls). Defined in
/// ParallelExplorer.cpp.
Explorer::Summary explore(const Workload &W);

/// Convenience driver: runs \p Setup then the scheduler for every explored
/// execution, invoking \p Check afterwards. \p Setup receives the fresh
/// machine and scheduler and must allocate state and start threads;
/// \p Check receives them after the run together with the run result and
/// may return void (informational) or bool (false = property violation,
/// counted in Summary::Violations with the trace captured).
///
/// Always one worker, whatever Options::Workers says: the closures are
/// shared, not instantiated per worker, so this wraps them in a
/// single-body Workload for exploreSerial (root replay, since the body is
/// not marked copy-on-write safe).
template <typename SetupT, typename CheckT>
Explorer::Summary explore(Explorer::Options Opts, SetupT Setup,
                          CheckT Check) {
  return exploreSerial(Workload(
      Opts, [&Setup](rmc::Machine &M, Scheduler &S) { Setup(M, S); },
      [&Check](rmc::Machine &M, Scheduler &S, Scheduler::RunResult R) {
        if constexpr (std::is_same_v<decltype(Check(M, S, R)), bool>) {
          return Check(M, S, R);
        } else {
          Check(M, S, R);
          return true;
        }
      }));
}

} // namespace compass::sim

#endif // COMPASS_SIM_WORKLOAD_H
