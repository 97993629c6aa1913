//===-- check/Harness.cpp - Scenario -> Workload instrumentation ----------===//

#include "check/Harness.h"

#include "spec/Composition.h"

#include <algorithm>
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
    Q = &Impl.emplace<lib::MsQueue>(M, Mon, "q",
                                    lib::MsQueue::SyncProfile::RelAcq, Mut);
    Obj = Q->objId();
    break;
  case Lib::HwQueue:
    Q = &Impl.emplace<lib::HwQueue>(M, Mon, "q", S.Capacity);
    Obj = Q->objId();
    break;
  case Lib::TreiberStack:
  case Lib::TreiberEbr:
    // The EBR stack's domain has one announcement slot per thread.
    Stk = &Impl.emplace<lib::TreiberStack>(
        M, Mon, "s", Mut,
        S.L == Lib::TreiberEbr ? static_cast<unsigned>(S.Threads.size()) : 0);
    Obj = Stk->objId();
    break;
  case Lib::ElimStack:
    Elim = &Impl.emplace<lib::ElimStack>(M, Mon, "es");
    Obj = DerivedEsObj; // Events are checked on the derived graph.
    break;
  case Lib::Exchanger:
    Ex = &Impl.emplace<lib::Exchanger>(M, Mon, "x", Mut);
    Obj = Ex->objId();
    break;
  case Lib::SpscRing:
    Ring = &Impl.emplace<lib::SpscRing>(M, Mon, "r", S.Capacity, Mut);
    Obj = Ring->objId();
    break;
  case Lib::WsDeque:
    Deq = &Impl.emplace<lib::WsDeque>(M, Mon, "d", S.Capacity, Mut);
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
    spec::LinearizeLimits Limits, graph::EventGraph &Derived) const {
  const graph::EventGraph &G = Mon.graph();
  if (L != Lib::ElimStack)
    return checkExecution(G, Obj, libSpec(L), Results, Limits,
                          libStrength(L));
  // The graph checks below see only the derived graph, so the recorded
  // one gets its structural sanity check here.
  std::string WF = G.checkWellFormed();
  if (!WF.empty())
    return Verdict::fail("WELL-FORMED", WF);
  spec::buildElimStackGraph(G, Elim->baseObjId(), Elim->exchangerObjId(),
                            DerivedEsObj, Derived);
  return checkExecution(Derived, DerivedEsObj, spec::SeqSpec::Stack, Results,
                        Limits);
}

void ContainerAdapter::saveOpState(OpState &Out) const {
  if (L == Lib::TreiberEbr)
    Out.Bins = std::get<lib::TreiberStack>(Impl).bins();
  else if (Deq)
    Out.Owner = Deq->owner();
  else if (Ring)
    Out.Roles = Ring->roles();
}

void ContainerAdapter::restoreOpState(const OpState &In) {
  if (L == Lib::TreiberEbr)
    std::get<lib::TreiberStack>(Impl).setBins(In.Bins);
  else if (Deq)
    Deq->setOwner(In.Owner);
  else if (Ring)
    Ring->setRoles(In.Roles);
}

void check::verdictKey(const graph::EventGraph &G,
                       const std::vector<std::vector<Observed>> &Results,
                       std::vector<uint64_t> &Key) {
  Key.clear();
  Key.push_back(G.size());
  for (graph::EventId Id = 0; Id != G.size(); ++Id) {
    if (!G.isCommitted(Id)) {
      Key.push_back(0);
      continue;
    }
    // Bit 32 marks a committed id, so no event's first word is 0.
    const graph::Event &E = G.event(Id);
    Key.push_back(uint64_t(E.Kind) << 33 | 1ull << 32 | E.CommitIdx);
    Key.push_back(uint64_t(E.ObjId) << 32 | E.Thread);
    Key.push_back(E.V1);
    Key.push_back(E.V2);
    const std::vector<uint64_t> &View = E.LogView.words();
    size_t N = View.size();
    while (N && !View[N - 1])
      --N;
    Key.push_back(N);
    Key.insert(Key.end(), View.begin(), View.begin() + N);
  }
  Key.push_back(G.so().size());
  for (const graph::SoEdge &Edge : G.so())
    Key.push_back(uint64_t(Edge.From) << 32 | Edge.To);
  Key.push_back(Results.size());
  for (const std::vector<Observed> &Thread : Results) {
    Key.push_back(Thread.size());
    for (const Observed &O : Thread) {
      Key.push_back(uint64_t(O.Code));
      Key.push_back(O.Arg);
      Key.push_back(O.Result);
    }
  }
}

uint64_t check::memoKeyTail(const graph::EventGraph &G,
                            const std::vector<std::vector<Observed>> &Results,
                            std::vector<uint64_t> &Tail) {
  // Bits 63 and 62: neither a commit record (bit 63 clear) nor an so
  // record (bit 62 clear) starts like this.
  Tail.clear();
  Tail.push_back(3ull << 62 | G.size());
  Tail.push_back(Results.size());
  for (const std::vector<Observed> &Thread : Results) {
    Tail.push_back(Thread.size());
    for (const Observed &O : Thread) {
      Tail.push_back(uint64_t(O.Code));
      Tail.push_back(O.Arg);
      Tail.push_back(O.Result);
    }
  }
  uint64_t H = G.keyHash();
  for (uint64_t W : Tail)
    H = graph::keyMix(H, W);
  return H;
}

const bool *VerdictMemo::find(const graph::EventGraph &G,
                              const std::vector<uint64_t> &Tail,
                              uint64_t Hash) const {
  if (Table.empty())
    return nullptr;
  const std::vector<uint64_t> &Words = G.keyWords();
  const size_t Len = Words.size() + Tail.size();
  const size_t Mask = Table.size() - 1;
  for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
    const Entry &E = Table[I];
    if (!E.Len)
      return nullptr;
    if (E.Hash != Hash || E.Len != Len)
      continue;
    const uint64_t *Key = Arena.data() + E.Off;
    if (std::equal(Words.begin(), Words.end(), Key) &&
        std::equal(Tail.begin(), Tail.end(), Key + Words.size()))
      return &E.LinAborted;
  }
}

void VerdictMemo::insert(const graph::EventGraph &G,
                         const std::vector<uint64_t> &Tail, uint64_t Hash,
                         bool LinAborted) {
  if (2 * (Count + 1) > Table.size())
    grow();
  const std::vector<uint64_t> &Words = G.keyWords();
  Entry New;
  New.Hash = Hash;
  New.Off = Arena.size();
  New.Len = static_cast<uint32_t>(Words.size() + Tail.size());
  New.LinAborted = LinAborted;
  Arena.insert(Arena.end(), Words.begin(), Words.end());
  Arena.insert(Arena.end(), Tail.begin(), Tail.end());
  const size_t Mask = Table.size() - 1;
  size_t I = Hash & Mask;
  while (Table[I].Len)
    I = (I + 1) & Mask;
  Table[I] = New;
  ++Count;
}

void VerdictMemo::grow() {
  std::vector<Entry> Old(std::max<size_t>(64, 2 * Table.size()));
  Old.swap(Table);
  const size_t Mask = Table.size() - 1;
  for (const Entry &E : Old) {
    if (!E.Len)
      continue;
    size_t I = E.Hash & Mask;
    while (Table[I].Len)
      I = (I + 1) & Mask;
    Table[I] = E;
  }
}

sim::Explorer::Options check::scenarioOptions(const Scenario &S,
                                              uint64_t MaxExecutions,
                                              unsigned Workers,
                                              sim::ReductionMode Red) {
  sim::Explorer::Options O;
  O.MaxExecutions = MaxExecutions;
  O.PreemptionBound = S.PreemptionBound;
  O.Workers = Workers;
  O.StopOnViolation = false; // Keep summaries worker-count independent.
  O.Reduction = Red;
  return O;
}

namespace {

/// One scenario thread: runs its op list, recording observed results.
/// \p Ops is the RunState's scenario thread, which outlives the task.
sim::Task<void> opThread(ContainerAdapter &A, const std::vector<Op> &Ops,
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
    // Runs before every root run (a copy-on-write resume restores state
    // instead, see CowSave below) and allocates nothing once warm: the
    // monitor is rewound, not reallocated, the adapter and its library
    // are rebuilt in RunState::A's storage, the result vectors keep their
    // capacity, and the thread coroutines' frames come from the engine's
    // frame arena (sim/Task.h).
    if (!St->Mon)
      St->Mon = std::make_unique<spec::SpecMonitor>();
    St->Mon->reset();
    St->A.emplace(St->S, St->Mut, M, *St->Mon);
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
    // The verdict memo (RunState::Memo); failures are always recomputed.
    // The graph grew its key as it grew, so only the tail is hashed here.
    const graph::EventGraph &G = St->Mon->graph();
    const uint64_t Hash = memoKeyTail(G, St->Results, St->KeyTail);
    Verdict V;
    if (const bool *Hit = St->Memo.find(G, St->KeyTail, Hash)) {
      ++St->MemoHits;
      V.LinAborted = *Hit;
    } else {
      V = St->A->verdict(*St->Mon, St->Results, St->Limits, St->Derived);
      if (V.Ok)
        St->Memo.insert(G, St->KeyTail, Hash, V.LinAborted);
    }
    if (V.LinAborted && St->SharedLinAborts)
      St->SharedLinAborts->fetch_add(1, std::memory_order_relaxed);
    St->LastVerdict = V;
    return V.Ok;
  };
  sim::Workload::Body B{std::move(Setup), std::move(Check)};
  // Copy-on-write client state: everything outside the machine and the
  // coroutine frames that threads change after Setup. The monitor's event
  // graph is append-only with an undo journal, so a snapshot is an O(1)
  // epoch and a restore an O(delta) trim. Each thread's Results only grow
  // within an execution, so a snapshot records their lengths and a
  // restore truncates to them. The library's op-time state is small and
  // copied whole. The verdict fields are written only at Check time.
  struct CowState {
    spec::SpecMonitor::Epoch MonEpoch;
    std::vector<size_t> ResultLens;
    ContainerAdapter::OpState Lib;
  };
  B.CowSave = [St](std::shared_ptr<void> &Slot) {
    if (!Slot)
      Slot = std::make_shared<CowState>();
    auto &C = *std::static_pointer_cast<CowState>(Slot);
    C.MonEpoch = St->Mon->epoch();
    C.ResultLens.resize(St->Results.size());
    for (size_t T = 0; T != St->Results.size(); ++T)
      C.ResultLens[T] = St->Results[T].size();
    St->A->saveOpState(C.Lib);
  };
  B.CowRestore = [St](const std::shared_ptr<void> &Slot) {
    const auto &C = *std::static_pointer_cast<CowState>(Slot);
    St->Mon->trimToEpoch(C.MonEpoch);
    for (size_t T = 0; T != St->Results.size(); ++T)
      St->Results[T].resize(C.ResultLens[T]);
    St->A->restoreOpState(C.Lib);
  };
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
