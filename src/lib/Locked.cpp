//===-- lib/Locked.cpp - Lock-based SC baseline containers ------------------===//

#include "lib/Locked.h"

#include "support/Error.h"

using namespace compass;
using namespace compass::lib;
using namespace compass::rmc;
using namespace compass::sim;
using compass::graph::EmptyVal;
using compass::graph::EventId;
using compass::graph::OpKind;

SpinLock::SpinLock(Machine &M, std::string Name) {
  L = M.alloc(Name + ".lock"); // 0 = free, 1 = held.
}

Task<void> SpinLock::lock(Env &E) {
  Timestamp PrevTs = ~0u;
  bool First = true;
  for (;;) {
    auto R = co_await E.cas(L, 0, 1, MemOrder::AcqRel);
    if (R.Success)
      co_return;
    // Fair wait until the lock is observably free, then race for it
    // again. Prune if we keep acting on the same stale free message.
    co_await E.spinUntil(
        L, [](Value V) { return V == 0; }, MemOrder::Relaxed);
    Timestamp Ts = E.M.lastReadTs(E.Tid);
    if (!First && Ts == PrevTs)
      co_await E.prune();
    First = false;
    PrevTs = Ts;
  }
}

Task<void> SpinLock::unlock(Env &E) {
  co_await E.store(L, 0, MemOrder::Release);
}

LockedQueue::LockedQueue(Machine &M, spec::SpecMonitor &Mon,
                         std::string Name, unsigned Capacity)
    : Mon(Mon), Capacity(Capacity), Lock(M, Name) {
  Obj = Mon.registerObject();
  Buf = M.alloc(Name + ".buf", Capacity);
  EidBuf = M.alloc(Name + ".eids", Capacity);
  HeadIdx = M.alloc(Name + ".headidx");
  Count = M.alloc(Name + ".count");
}

Task<void> LockedQueue::enqueue(Env &E, Value V) {
  auto Acq = Lock.lock(E);
  co_await Acq;
  Value H = co_await E.load(HeadIdx, MemOrder::NonAtomic);
  Value C = co_await E.load(Count, MemOrder::NonAtomic);
  if (C >= Capacity)
    fatalError("LockedQueue capacity exceeded; size the workload");
  Loc SlotIdx = static_cast<Loc>((H + C) % Capacity);
  co_await E.store(Buf + SlotIdx, V, MemOrder::NonAtomic);
  EventId Ev = Mon.reserve(E.M, E.Tid);
  co_await E.store(EidBuf + SlotIdx, Ev, MemOrder::NonAtomic);
  co_await E.store(Count, C + 1, MemOrder::NonAtomic);
  auto Rel1 = Lock.unlock(E);
  co_await Rel1;
  // Commit point: the critical section, linearized at the unlock whose
  // release message carries the event to the next lock holder.
  Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::Enq, V);
  co_return;
}

Task<Value> LockedQueue::dequeue(Env &E) {
  auto Acq = Lock.lock(E);
  co_await Acq;
  Value C = co_await E.load(Count, MemOrder::NonAtomic);
  if (C == 0) {
    EventId Ev = Mon.reserve(E.M, E.Tid);
    auto Rel2 = Lock.unlock(E);
    co_await Rel2;
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::DeqEmpty, EmptyVal);
    co_return EmptyVal;
  }
  Value H = co_await E.load(HeadIdx, MemOrder::NonAtomic);
  Loc SlotIdx = static_cast<Loc>(H);
  Value V = co_await E.load(Buf + SlotIdx, MemOrder::NonAtomic);
  Value EnqEv = co_await E.load(EidBuf + SlotIdx, MemOrder::NonAtomic);
  co_await E.store(HeadIdx, (H + 1) % Capacity, MemOrder::NonAtomic);
  co_await E.store(Count, C - 1, MemOrder::NonAtomic);
  EventId Ev = Mon.reserve(E.M, E.Tid);
  auto Rel3 = Lock.unlock(E);
  co_await Rel3;
  Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::DeqOk, V, 0,
             static_cast<EventId>(EnqEv));
  co_return V;
}

LockedStack::LockedStack(Machine &M, spec::SpecMonitor &Mon,
                         std::string Name, unsigned Capacity)
    : Mon(Mon), Capacity(Capacity), Lock(M, Name) {
  Obj = Mon.registerObject();
  Buf = M.alloc(Name + ".buf", Capacity);
  EidBuf = M.alloc(Name + ".eids", Capacity);
  Count = M.alloc(Name + ".count");
}

Task<void> LockedStack::push(Env &E, Value V) {
  auto Acq = Lock.lock(E);
  co_await Acq;
  Value C = co_await E.load(Count, MemOrder::NonAtomic);
  if (C >= Capacity)
    fatalError("LockedStack capacity exceeded; size the workload");
  Loc SlotIdx = static_cast<Loc>(C);
  co_await E.store(Buf + SlotIdx, V, MemOrder::NonAtomic);
  EventId Ev = Mon.reserve(E.M, E.Tid);
  co_await E.store(EidBuf + SlotIdx, Ev, MemOrder::NonAtomic);
  co_await E.store(Count, C + 1, MemOrder::NonAtomic);
  auto Rel4 = Lock.unlock(E);
  co_await Rel4;
  Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::Push, V);
  co_return;
}

Task<Value> LockedStack::pop(Env &E) {
  auto Acq = Lock.lock(E);
  co_await Acq;
  Value C = co_await E.load(Count, MemOrder::NonAtomic);
  if (C == 0) {
    EventId Ev = Mon.reserve(E.M, E.Tid);
    auto Rel5 = Lock.unlock(E);
    co_await Rel5;
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::PopEmpty, EmptyVal);
    co_return EmptyVal;
  }
  Loc SlotIdx = static_cast<Loc>(C - 1);
  Value V = co_await E.load(Buf + SlotIdx, MemOrder::NonAtomic);
  Value PushEv = co_await E.load(EidBuf + SlotIdx, MemOrder::NonAtomic);
  co_await E.store(Count, C - 1, MemOrder::NonAtomic);
  EventId Ev = Mon.reserve(E.M, E.Tid);
  auto Rel6 = Lock.unlock(E);
  co_await Rel6;
  Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::PopOk, V, 0,
             static_cast<EventId>(PushEv));
  co_return V;
}

Task<bool> LockedStack::tryPush(Env &E, Value V) {
  auto P = push(E, V);
  co_await P;
  co_return true;
}

Task<Value> LockedStack::tryPop(Env &E) { return pop(E); }
