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
    : Mon(Mon), Capacity(Capacity), Ord(orders(Mut)) {
  Obj = Mon.registerObject();
  Top = M.alloc(Name + ".top");
  Bottom = M.alloc(Name + ".bottom");
  Buf = M.alloc(Name + ".buf", Capacity);
  Eids = M.alloc(Name + ".eids", Capacity);
  for (unsigned I = 0; I != Capacity; ++I)
    Own.Shadow.push_back({});
}

WsDequeOrders WsDeque::orders(Mutation Mut) {
  WsDequeOrders O;
  if (Mut == Mutation::WsDequeTakeNoFence)
    O.TakeFence = MemOrder::Relaxed; // Take may then race a steal.
  return O;
}

void WsDeque::checkOwner(unsigned Tid) {
  if (Own.Tid == ~0u)
    Own.Tid = Tid;
  else if (Own.Tid != Tid)
    fatalError("WsDeque owner operations must come from one thread");
}

Task<void> WsDeque::push(Env &E, Value V) {
  checkOwner(E.Tid);
  Value B = co_await E.load(Bottom, Ord.OwnBottomLoad);
  Value T = co_await E.load(Top, Ord.PushTopLoad);
  if (B >= Capacity || static_cast<int64_t>(B) - static_cast<int64_t>(T) >=
                           static_cast<int64_t>(Capacity))
    fatalError("WsDeque capacity exceeded; size the workload");

  co_await E.store(Buf + static_cast<Loc>(B), V, Ord.SlotStore);
  EventId Ev = Mon.reserve(E.M, E.Tid);
  co_await E.store(Eids + static_cast<Loc>(B), Ev, Ord.SlotStore);
  // The release fence makes the (relaxed) bottom store below publish the
  // element and the event id.
  if (Ord.PushFence != MemOrder::Relaxed)
    co_await E.fence(Ord.PushFence);
  co_await E.store(Bottom, B + 1, Ord.BottomStore);
  // Commit point: the bottom store.
  Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::Push, V);
  Own.Shadow[B] = {V, Ev, true};
  co_return;
}

Task<Value> WsDeque::take(Env &E) {
  checkOwner(E.Tid);
  Value B = co_await E.load(Bottom, Ord.OwnBottomLoad);
  int64_t BI = static_cast<int64_t>(B) - 1;
  co_await E.store(Bottom, static_cast<Value>(BI), Ord.BottomStore);
  if (Ord.TakeFence != MemOrder::Relaxed)
    co_await E.fence(Ord.TakeFence);
  Value T = co_await E.load(Top, Ord.TakeTopLoad);
  int64_t TI = static_cast<int64_t>(T);

  if (TI > BI) {
    // Empty. Commit point: the top read just performed.
    EventId Ev = Mon.reserve(E.M, E.Tid);
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::PopEmpty, EmptyVal);
    co_await E.store(Bottom, static_cast<Value>(BI + 1), Ord.BottomStore);
    co_return EmptyVal;
  }

  if (static_cast<uint64_t>(BI) >= Own.Shadow.size() ||
      !Own.Shadow[BI].Live)
    fatalError("WsDeque owner shadow out of sync");
  ShadowEntry Shadow = Own.Shadow[BI];

  if (TI != BI) {
    // More than one element: the bottom one is owner-exclusive. Commit
    // point: the top read (the decisive instruction of this take).
    EventId Ev = Mon.reserve(E.M, E.Tid);
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::PopOk, Shadow.Val, 0,
               Shadow.Ev);
    Own.Shadow[BI].Live = false;
    // Fidelity: the algorithm reads the buffer; assert against the
    // shadow.
    Value V = co_await E.load(Buf + static_cast<Loc>(BI), Ord.SlotLoad);
    assert(V == Shadow.Val && "owner read its own slot inconsistently");
    co_return V;
  }

  // Last element: race a concurrent steal with an SC CAS on top.
  EventId Ev = Mon.reserve(E.M, E.Tid);
  auto R = co_await E.cas(Top, T, T + 1, Ord.TopCas);
  if (R.Success) {
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::PopOk, Shadow.Val, 0,
               Shadow.Ev);
    Own.Shadow[BI].Live = false;
    co_await E.store(Bottom, static_cast<Value>(BI + 1), Ord.BottomStore);
    co_return Shadow.Val;
  }
  // Lost to a thief: the deque is now empty. Commit point: the failed
  // CAS.
  Mon.retract(E.M, E.Tid, Ev);
  EventId EmpEv = Mon.reserve(E.M, E.Tid);
  Mon.commit(E.M, E.Tid, EmpEv, Obj, OpKind::PopEmpty, EmptyVal);
  co_await E.store(Bottom, static_cast<Value>(BI + 1), Ord.BottomStore);
  co_return EmptyVal;
}

Task<Value> WsDeque::steal(Env &E) {
  Value T = co_await E.load(Top, Ord.StealTopLoad);
  if (Ord.StealFence != MemOrder::Relaxed)
    co_await E.fence(Ord.StealFence);
  Value B = co_await E.load(Bottom, Ord.StealBottomLoad);
  if (static_cast<int64_t>(T) >= static_cast<int64_t>(B)) {
    // Observably empty. Commit point: the bottom read.
    EventId Ev = Mon.reserve(E.M, E.Tid);
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::StealEmpty, EmptyVal);
    co_return EmptyVal;
  }
  Value V = co_await E.load(Buf + static_cast<Loc>(T), Ord.SlotLoad);
  Value PushEv = co_await E.load(Eids + static_cast<Loc>(T), Ord.SlotLoad);
  EventId Ev = Mon.reserve(E.M, E.Tid);
  auto R = co_await E.cas(Top, T, T + 1, Ord.TopCas);
  if (R.Success) {
    // Commit point: the SC CAS claiming the top element.
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::Steal, V, 0,
               static_cast<EventId>(PushEv));
    co_return V;
  }
  Mon.retract(E.M, E.Tid, Ev);
  co_return FailRaceVal;
}
