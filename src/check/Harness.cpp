//===-- check/Harness.cpp - Scenario -> Workload instrumentation ----------===//

#include "check/Harness.h"

#include "spec/Composition.h"

#include <cassert>

using namespace compass;
using namespace compass::check;

namespace {

/// Object id under which the elimination stack's *derived* events are
/// rebuilt (spec/Composition.h). Any id unused by the monitor works; a
/// large constant keeps it visibly synthetic in diagnostics.
constexpr unsigned DerivedEsObj = 1000;

/// Bounded rounds/attempts for the optimistic libraries, kept small so the
/// decision tree stays tractable.
constexpr unsigned ElimRounds = 2;
constexpr unsigned ExchangeAttempts = 1;

} // namespace

ContainerAdapter::ContainerAdapter(const Scenario &S, Mutation Mut,
                                   rmc::Machine &M, spec::SpecMonitor &Mon)
    : L(S.L) {
  assert((Mut == Mutation::None || mutationLib(Mut) == S.L) &&
         "mutation seeded into a library that does not own it");
  switch (S.L) {
  case Lib::MsQueue:
    Q = std::make_unique<lib::MsQueue>(
        M, Mon, "q", lib::MsQueue::SyncProfile::RelAcq, Mut);
    Obj = Q->objId();
    break;
  case Lib::HwQueue:
    Q = std::make_unique<lib::HwQueue>(M, Mon, "q", S.Capacity);
    Obj = Q->objId();
    break;
  case Lib::TreiberStack:
    Stk = std::make_unique<lib::TreiberStack>(M, Mon, "s", Mut);
    Obj = Stk->objId();
    break;
  case Lib::TreiberEbr:
    Stk = std::make_unique<lib::TreiberStackEbr>(
        M, Mon, "s", static_cast<unsigned>(S.Threads.size()), Mut);
    Obj = Stk->objId();
    break;
  case Lib::ElimStack:
    Elim = std::make_unique<lib::ElimStack>(M, Mon, "es");
    Obj = DerivedEsObj; // Events are checked on the derived graph.
    break;
  case Lib::Exchanger:
    Ex = std::make_unique<lib::Exchanger>(M, Mon, "x", Mut);
    Obj = Ex->objId();
    break;
  case Lib::SpscRing:
    Ring = std::make_unique<lib::SpscRing>(M, Mon, "r", S.Capacity, Mut);
    Obj = Ring->objId();
    break;
  case Lib::WsDeque:
    Deq = std::make_unique<lib::WsDeque>(M, Mon, "d", S.Capacity, Mut);
    Obj = Deq->objId();
    break;
  }
}

sim::Task<rmc::Value> ContainerAdapter::apply(sim::Env &E, Op O) {
  // Task awaits must go through named locals (see sim/Task.h).
  switch (O.Code) {
  case OpCode::Enq: {
    if (Ring) {
      auto T = Ring->tryEnqueue(E, O.Arg);
      bool Ok = co_await T;
      co_return Ok ? O.Arg : 0;
    }
    auto T = Q->enqueue(E, O.Arg);
    co_await T;
    co_return O.Arg;
  }
  case OpCode::Deq: {
    auto T = Ring ? Ring->dequeue(E) : Q->dequeue(E);
    rmc::Value V = co_await T;
    co_return V;
  }
  case OpCode::Push: {
    if (Elim) {
      auto T = Elim->push(E, O.Arg, ElimRounds);
      bool Ok = co_await T;
      co_return Ok ? O.Arg : graph::FailRaceVal;
    }
    auto T = Deq ? Deq->push(E, O.Arg) : Stk->push(E, O.Arg);
    co_await T;
    co_return O.Arg;
  }
  case OpCode::Pop: {
    if (Elim) {
      auto T = Elim->pop(E, ElimRounds);
      rmc::Value V = co_await T;
      co_return V;
    }
    auto T = Stk->pop(E);
    rmc::Value V = co_await T;
    co_return V;
  }
  case OpCode::Exchange: {
    auto T = Ex->exchange(E, O.Arg, ExchangeAttempts);
    rmc::Value V = co_await T;
    co_return V;
  }
  case OpCode::Take: {
    auto T = Deq->take(E);
    rmc::Value V = co_await T;
    co_return V;
  }
  case OpCode::Steal: {
    auto T = Deq->steal(E);
    rmc::Value V = co_await T;
    co_return V;
  }
  }
  co_return 0;
}

Verdict ContainerAdapter::verdict(
    const spec::SpecMonitor &Mon,
    const std::vector<std::vector<Observed>> &Results,
    spec::LinearizeLimits Limits) const {
  const graph::EventGraph &G = Mon.graph();
  // Structural sanity of the *recorded* graph only: derived elim-stack
  // graphs legitimately reference vanished failed-exchange ids in logical
  // views, so checkWellFormed is not run on them.
  std::string WF = G.checkWellFormed();
  if (!WF.empty())
    return Verdict::fail("WELL-FORMED", WF);

  if (L == Lib::ElimStack) {
    graph::EventGraph Derived = spec::buildElimStackGraph(
        G, Elim->baseObjId(), Elim->exchangerObjId(), DerivedEsObj);
    return checkExecution(Derived, DerivedEsObj, lib::ContainerFamily::Stack,
                          Results, Limits);
  }
  return checkExecution(G, Obj, libFamily(L), Results, Limits, libStrength(L));
}

sim::Explorer::Options check::scenarioOptions(const Scenario &S,
                                              uint64_t MaxExecutions,
                                              unsigned Workers,
                                              sim::ReductionMode Red,
                                              sim::EnginePath Engine) {
  sim::Explorer::Options O;
  O.ExploreMode = sim::Explorer::Mode::Exhaustive;
  O.MaxExecutions = MaxExecutions;
  O.PreemptionBound = S.PreemptionBound;
  O.Workers = Workers;
  O.StopOnViolation = false; // Keep summaries worker-count independent.
  O.Reduction = Red;
  O.Engine = Engine;
  return O;
}

namespace {

/// One scenario thread: runs its op list, recording observed results.
sim::Task<void> opThread(ContainerAdapter &A, std::vector<Op> Ops,
                         sim::Env &E, std::vector<Observed> &Out) {
  for (Op O : Ops) {
    auto T = A.apply(E, O);
    rmc::Value R = co_await T;
    Out.push_back({O.Code, O.Arg, R});
  }
}

/// Setup/Check pair over one RunState (shared per body instantiation).
sim::Workload::Body bodyFor(std::shared_ptr<RunState> St) {
  sim::Workload::SetupFn Setup = [St](rmc::Machine &M, sim::Scheduler &Sch) {
    // The monitor is reused across executions (reset, not reallocated), so
    // its graph vectors reach steady-state capacity once. beginExecution
    // keeps the graph intact during a copy-on-write fast-forward; the
    // engine epoch-trims it afterwards (see CowSave below).
    if (!St->Mon)
      St->Mon = std::make_unique<spec::SpecMonitor>();
    St->Mon->beginExecution(M);
    St->A = std::make_unique<ContainerAdapter>(St->S, St->Mut, M, *St->Mon);
    St->Results.assign(St->S.Threads.size(), {});
    for (size_t T = 0; T != St->S.Threads.size(); ++T) {
      sim::Env &E = Sch.newThread();
      Sch.start(E, opThread(*St->A, St->S.Threads[T], E, St->Results[T]));
    }
  };
  sim::Workload::CheckFn Check = [St](rmc::Machine &M, sim::Scheduler &,
                                      sim::Scheduler::RunResult R) {
    St->LastRun = R;
    switch (R) {
    case sim::Scheduler::RunResult::Pruned:
      // Stutter iteration cut off by Env::prune: vacuously fine.
      St->LastVerdict = Verdict{};
      return true;
    case sim::Scheduler::RunResult::SleepPruned:
      // Branch cut by the source-set reduction: everything below it
      // is equivalent to an explored sibling, so there is nothing to check.
      St->LastVerdict = Verdict{};
      return true;
    case sim::Scheduler::RunResult::RfPruned:
      // A restricted re-run whose fresh reads-from options came up empty:
      // every execution below it reads below the watermark and commutes
      // back to an explored sibling. Nothing to check.
      St->LastVerdict = Verdict{};
      return true;
    case sim::Scheduler::RunResult::Race:
      St->LastVerdict = Verdict::fail(M.faultRule(), M.raceMessage());
      return false;
    case sim::Scheduler::RunResult::Deadlock:
      St->LastVerdict =
          Verdict::fail("DEADLOCK", "execution deadlocked before all "
                                    "scenario threads finished");
      return false;
    case sim::Scheduler::RunResult::StepLimit:
      St->LastVerdict =
          Verdict::fail("STEP-LIMIT", "scheduler step budget exhausted");
      return false;
    case sim::Scheduler::RunResult::Done:
      break;
    }
    Verdict V = St->A->verdict(*St->Mon, St->Results, St->Limits);
    if (V.LinAborted) {
      ++St->LinAborts;
      if (St->SharedLinAborts)
        St->SharedLinAborts->fetch_add(1, std::memory_order_relaxed);
    }
    St->LastVerdict = V;
    return V.Ok;
  };
  sim::Workload::Body B{std::move(Setup), std::move(Check)};
  // Copy-on-write eligibility: the cross-step state outside the machine
  // and coroutine locals is the spec monitor plus the per-thread Results
  // vectors. The monitor's event graph is append-only with an undo
  // journal, so a snapshot is an O(1) epoch and a restore an O(delta)
  // trim — no deep copies; Results are small and copied wholesale (the
  // restore runs after the fast-forward, so it also overwrites the
  // partial re-pushes of replayed threads). The adapter is rebuilt by
  // Setup; the verdict fields are written only at Check time.
  struct CowState {
    spec::SpecMonitor::Epoch MonEpoch;
    std::vector<std::vector<Observed>> Results;
  };
  B.CowSave = [St](std::shared_ptr<void> &Slot) {
    if (!Slot)
      Slot = std::make_shared<CowState>();
    auto &C = *std::static_pointer_cast<CowState>(Slot);
    C.MonEpoch = St->Mon->epoch();
    C.Results = St->Results;
  };
  B.CowRestore = [St](const std::shared_ptr<void> &Slot) {
    const auto &C = *std::static_pointer_cast<CowState>(Slot);
    St->Mon->trimToEpoch(C.MonEpoch);
    St->Results = C.Results;
  };
  // Finished-thread skipping: a finished scenario thread's only client
  // effects are its Results entries (restored above) — except when the
  // library itself keeps op-time C++ state that other threads' re-run
  // steps read: the EBR wrapper's ghost retire bins and the work-stealing
  // deque's owner shadow map.
  B.CowSkipFinished = St->S.L != Lib::TreiberEbr && St->S.L != Lib::WsDeque;
  return B;
}

} // namespace

sim::Workload
check::makeWorkload(const Scenario &S, Mutation Mut,
                    sim::Explorer::Options Opts,
                    std::shared_ptr<std::atomic<uint64_t>> LinAborts) {
  return sim::Workload(Opts, [S, Mut, LinAborts]() {
    auto St = std::make_shared<RunState>();
    St->S = S;
    St->Mut = Mut;
    St->SharedLinAborts = LinAborts;
    return bodyFor(std::move(St));
  });
}

Instrumented check::makeInstrumented(const Scenario &S, Mutation Mut,
                                     sim::Explorer::Options Opts) {
  auto St = std::make_shared<RunState>();
  St->S = S;
  St->Mut = Mut;
  return {sim::Workload(Opts, bodyFor(St)), St};
}

TraceDiagnosis check::diagnoseTrace(const Scenario &S, Mutation Mut,
                                    sim::Explorer::Options Opts,
                                    const std::vector<unsigned> &Decisions) {
  Instrumented I = makeInstrumented(S, Mut, Opts);
  TraceDiagnosis D;
  D.RR = sim::replay(I.W, Decisions, &D.Executed);
  D.Run = I.State->LastRun;
  D.V = I.State->LastVerdict;
  return D;
}
