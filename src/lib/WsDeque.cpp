//===-- lib/WsDeque.cpp - Chase-Lev work-stealing deque --------------------===//

#include "lib/WsDeque.h"

#include "support/Error.h"

#include <cassert>

using namespace compass;
using namespace compass::lib;
using namespace compass::rmc;
using namespace compass::sim;
using compass::graph::EmptyVal;
using compass::graph::EventId;
using compass::graph::FailRaceVal;
using compass::graph::OpKind;

WsDeque::WsDeque(Machine &M, spec::SpecMonitor &Mon, std::string Name,
                 unsigned Capacity, Mutation Mut)
    : Mon(Mon), Capacity(Capacity), Mut(Mut) {
  Obj = Mon.registerObject(Name);
  Top = M.alloc(Name + ".top");
  Bottom = M.alloc(Name + ".bottom");
  Buf = M.alloc(Name + ".buf", Capacity);
  Eids = M.alloc(Name + ".eids", Capacity);
}

void WsDeque::checkOwner(unsigned Tid) {
  if (OwnerTid == ~0u)
    OwnerTid = Tid;
  else if (OwnerTid != Tid)
    fatalError("WsDeque owner operations must come from one thread");
}

Task<void> WsDeque::push(Env &E, Value V) {
  checkOwner(E.Tid);
  Value B = co_await E.load(Bottom, MemOrder::Relaxed);
  Value T = co_await E.load(Top, MemOrder::Acquire);
  if (B >= Capacity || static_cast<int64_t>(B) - static_cast<int64_t>(T) >=
                           static_cast<int64_t>(Capacity))
    fatalError("WsDeque capacity exceeded; size the workload");

  co_await E.store(Buf + static_cast<Loc>(B), V, MemOrder::Relaxed);
  EventId Ev = Mon.reserve(E.M, E.Tid);
  co_await E.store(Eids + static_cast<Loc>(B), Ev, MemOrder::Relaxed);
  // The release fence makes the (relaxed) bottom store below publish the
  // element and the event id.
  co_await E.fence(MemOrder::Release);
  co_await E.store(Bottom, B + 1, MemOrder::Relaxed);
  // Commit point: the bottom store.
  Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::Push, V);
  OwnerShadow[B] = {V, Ev};
  co_return;
}

Task<Value> WsDeque::take(Env &E) {
  checkOwner(E.Tid);
  Value B = co_await E.load(Bottom, MemOrder::Relaxed);
  int64_t BI = static_cast<int64_t>(B) - 1;
  co_await E.store(Bottom, static_cast<Value>(BI), MemOrder::Relaxed);
  // WsDequeTakeNoFence drops this fence: the relaxed top read may then be
  // stale, and the owner can take the element a thief is stealing.
  if (Mut != Mutation::WsDequeTakeNoFence)
    co_await E.fence(MemOrder::SeqCst);
  Value T = co_await E.load(Top, MemOrder::Relaxed);
  int64_t TI = static_cast<int64_t>(T);

  if (TI > BI) {
    // Empty. Commit point: the top read just performed.
    EventId Ev = Mon.reserve(E.M, E.Tid);
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::PopEmpty, EmptyVal);
    co_await E.store(Bottom, static_cast<Value>(BI + 1),
                     MemOrder::Relaxed);
    co_return EmptyVal;
  }

  auto ShadowIt = OwnerShadow.find(static_cast<uint64_t>(BI));
  if (ShadowIt == OwnerShadow.end())
    fatalError("WsDeque owner shadow out of sync");
  ShadowEntry Shadow = ShadowIt->second;

  if (TI != BI) {
    // More than one element: the bottom one is owner-exclusive. Commit
    // point: the top read (the decisive instruction of this take).
    EventId Ev = Mon.reserve(E.M, E.Tid);
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::PopOk, Shadow.Val, 0,
               Shadow.Ev);
    OwnerShadow.erase(static_cast<uint64_t>(BI));
    // Fidelity: the algorithm reads the buffer; assert against the
    // shadow.
    Value V = co_await E.load(Buf + static_cast<Loc>(BI),
                              MemOrder::Relaxed);
    assert(V == Shadow.Val && "owner read its own slot inconsistently");
    co_return V;
  }

  // Last element: race a concurrent steal with an SC CAS on top.
  EventId Ev = Mon.reserve(E.M, E.Tid);
  auto R = co_await E.cas(Top, T, T + 1, MemOrder::SeqCst,
                          MemOrder::Relaxed);
  if (R.Success) {
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::PopOk, Shadow.Val, 0,
               Shadow.Ev);
    OwnerShadow.erase(static_cast<uint64_t>(BI));
    co_await E.store(Bottom, static_cast<Value>(BI + 1),
                     MemOrder::Relaxed);
    co_return Shadow.Val;
  }
  // Lost to a thief: the deque is now empty. Commit point: the failed
  // CAS.
  Mon.retract(E.M, E.Tid, Ev);
  EventId EmpEv = Mon.reserve(E.M, E.Tid);
  Mon.commit(E.M, E.Tid, EmpEv, Obj, OpKind::PopEmpty, EmptyVal);
  co_await E.store(Bottom, static_cast<Value>(BI + 1), MemOrder::Relaxed);
  co_return EmptyVal;
}

Task<Value> WsDeque::steal(Env &E) {
  Value T = co_await E.load(Top, MemOrder::Acquire);
  co_await E.fence(MemOrder::SeqCst);
  Value B = co_await E.load(Bottom, MemOrder::Acquire);
  if (static_cast<int64_t>(T) >= static_cast<int64_t>(B)) {
    // Observably empty. Commit point: the bottom read.
    EventId Ev = Mon.reserve(E.M, E.Tid);
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::StealEmpty, EmptyVal);
    co_return EmptyVal;
  }
  Value V = co_await E.load(Buf + static_cast<Loc>(T), MemOrder::Relaxed);
  Value PushEv =
      co_await E.load(Eids + static_cast<Loc>(T), MemOrder::Relaxed);
  EventId Ev = Mon.reserve(E.M, E.Tid);
  auto R = co_await E.cas(Top, T, T + 1, MemOrder::SeqCst,
                          MemOrder::Relaxed);
  if (R.Success) {
    // Commit point: the SC CAS claiming the top element.
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::Steal, V, 0,
               static_cast<EventId>(PushEv));
    co_return V;
  }
  Mon.retract(E.M, E.Tid, Ev);
  co_return FailRaceVal;
}
