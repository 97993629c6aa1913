//===-- lib/TreiberStack.cpp - Relaxed Treiber stack ------------------------===//

#include "lib/TreiberStack.h"

using namespace compass;
using namespace compass::lib;
using namespace compass::rmc;
using namespace compass::sim;
using compass::graph::EmptyVal;
using compass::graph::EventId;
using compass::graph::FailRaceVal;
using compass::graph::OpKind;

TreiberStack::TreiberStack(Machine &M, spec::SpecMonitor &Mon,
                           std::string Name, Mutation Mut)
    : Mon(Mon), Mut(Mut) {
  Obj = Mon.registerObject(Name);
  HeadLoc = M.alloc(Name + ".head"); // 0 = empty stack.
}

Task<bool> TreiberStack::pushAttempt(Env &E, Value HeadPtr, Loc N,
                                     Value V) {
  co_await E.store(N + NextOff, HeadPtr, MemOrder::NonAtomic);
  EventId Ev = Mon.reserve(E.M, E.Tid);
  co_await E.store(N + EidOff, Ev, MemOrder::NonAtomic);
  auto R = co_await E.cas(HeadLoc, HeadPtr, N, MemOrder::Release);
  if (R.Success) {
    // Commit point: the release CAS installing the node.
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::Push, V);
    co_return true;
  }
  Mon.retract(E.M, E.Tid, Ev);
  co_return false;
}

Task<void> TreiberStack::push(Env &E, Value V) {
  Loc N = E.M.alloc("stk.node", 3);
  co_await E.store(N + ValOff, V, MemOrder::NonAtomic);
  // Stutter fingerprint: the head *message* (timestamp) we based the
  // failed attempt on. Head values can recur (S, A, B, A, ...), so values
  // alone would not distinguish a stale re-read from genuine progress.
  Timestamp PrevTs = ~0u;
  bool First = true;
  for (;;) {
    Value HeadPtr = co_await E.load(HeadLoc, MemOrder::Relaxed);
    Timestamp Ts = E.M.lastReadTs(E.Tid);
    if (!First && Ts == PrevTs)
      co_await E.prune();
    First = false;
    PrevTs = Ts;
    auto Attempt = pushAttempt(E, HeadPtr, N, V);
    bool Ok = co_await Attempt;
    if (Ok)
      co_return;
  }
}

Task<bool> TreiberStack::tryPush(Env &E, Value V) {
  Loc N = E.M.alloc("stk.node", 3);
  co_await E.store(N + ValOff, V, MemOrder::NonAtomic);
  Value HeadPtr = co_await E.load(HeadLoc, MemOrder::Relaxed);
  auto Attempt = pushAttempt(E, HeadPtr, N, V);
  bool Ok = co_await Attempt;
  co_return Ok;
}

Task<Value> TreiberStack::popAttempt(Env &E, Timestamp *HeadTsOut) {
  // TreiberRelaxedPopHead relaxes this load, so the non-atomic node reads
  // below race with the pusher's initialization.
  Value HeadPtr = co_await E.load(HeadLoc,
                                  Mut == Mutation::TreiberRelaxedPopHead
                                      ? MemOrder::Relaxed
                                      : MemOrder::Acquire);
  if (HeadTsOut)
    *HeadTsOut = E.M.lastReadTs(E.Tid);
  if (HeadPtr == 0) {
    // Commit point (empty): the acquire read of a null head.
    EventId Ev = Mon.reserve(E.M, E.Tid);
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::PopEmpty, EmptyVal);
    co_return EmptyVal;
  }
  Loc Node = static_cast<Loc>(HeadPtr);
  Value Next = co_await E.load(Node + NextOff, MemOrder::NonAtomic);
  if (Mut == Mutation::TreiberPopBelowTop && Next != 0) {
    // Seeded fault: unlink the top two nodes but pop the second; the top
    // element vanishes unpopped (LIFO violation).
    Node = static_cast<Loc>(Next);
    Next = co_await E.load(Node + NextOff, MemOrder::NonAtomic);
  }
  Value V = co_await E.load(Node + ValOff, MemOrder::NonAtomic);
  Value PushEv = co_await E.load(Node + EidOff, MemOrder::NonAtomic);
  EventId Ev = Mon.reserve(E.M, E.Tid);
  auto R = co_await E.cas(HeadLoc, HeadPtr, Next, MemOrder::Acquire);
  if (R.Success) {
    // Commit point: the acquire CAS removing the node.
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::PopOk, V, 0,
               static_cast<EventId>(PushEv));
    co_return V;
  }
  Mon.retract(E.M, E.Tid, Ev);
  co_return FailRaceVal;
}

Task<Value> TreiberStack::tryPop(Env &E) { return popAttempt(E); }

Task<Value> TreiberStack::pop(Env &E) {
  Timestamp PrevTs = ~0u;
  bool First = true;
  for (;;) {
    Timestamp Ts = 0;
    auto Attempt = popAttempt(E, &Ts);
    Value V = co_await Attempt;
    if (V != FailRaceVal)
      co_return V;
    // Stutter fingerprint: the head message the failed attempt was based
    // on; re-observing the same message cannot make progress.
    if (!First && Ts == PrevTs)
      co_await E.prune();
    First = false;
    PrevTs = Ts;
  }
}
