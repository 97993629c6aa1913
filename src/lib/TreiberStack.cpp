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
                           std::string Name, Mutation Mut,
                           unsigned EbrThreads)
    : Mon(Mon), Mut(Mut), Ord(orders(Mut)),
      NodeName(EbrThreads ? "estk.node" : "stk.node") {
  if (EbrThreads)
    Dom.emplace(M, Name + ".ebr", EbrThreads,
                Ebr::Options(Mut == Mutation::EbrSkipGracePeriod));
  Obj = Mon.registerObject();
  HeadLoc = M.alloc(Name + ".head"); // 0 = empty stack.
}

TreiberOrders TreiberStack::orders(Mutation Mut) {
  TreiberOrders O;
  if (Mut == Mutation::TreiberRelaxedPopHead)
    O.PopHeadLoad = MemOrder::Relaxed; // Node reads then race the push.
  return O;
}

Task<bool> TreiberStack::pushAttempt(Env &E, Value HeadPtr, Loc N,
                                     Value V) {
  co_await E.store(N + NextOff, HeadPtr, MemOrder::NonAtomic);
  EventId Ev = Mon.reserve(E.M, E.Tid);
  co_await E.store(N + EidOff, Ev, MemOrder::NonAtomic);
  auto R = co_await E.cas(HeadLoc, HeadPtr, N, Ord.PushCas);
  if (R.Success) {
    // Commit point: the release CAS installing the node.
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::Push, V);
    co_return true;
  }
  Mon.retract(E.M, E.Tid, Ev);
  co_return false;
}

Task<void> TreiberStack::push(Env &E, Value V) {
  Loc N = E.M.alloc(NodeName, NodeCells);
  co_await E.store(N + ValOff, V, MemOrder::NonAtomic);
  if (Dom) {
    // Pin around the whole operation (native Guard discipline); the push
    // never dereferences the head node, but pinning keeps the protocol
    // uniform and exercises the announcement scan from both operations.
    auto Pin = Dom->pin(E);
    co_await Pin;
  }
  // Stutter fingerprint: the head *message* (timestamp) we based the
  // failed attempt on. Head values can recur (S, A, B, A, ...), so values
  // alone would not distinguish a stale re-read from genuine progress.
  Timestamp PrevTs = ~0u;
  bool First = true;
  for (;;) {
    Value HeadPtr = co_await E.load(HeadLoc, Ord.PushHeadLoad);
    Timestamp Ts = E.M.lastReadTs(E.Tid);
    if (!First && Ts == PrevTs)
      co_await E.prune();
    First = false;
    PrevTs = Ts;
    auto Attempt = pushAttempt(E, HeadPtr, N, V);
    bool Ok = co_await Attempt;
    if (Ok)
      break;
  }
  if (Dom) {
    auto Unpin = Dom->unpin(E);
    co_await Unpin;
  }
}

Task<bool> TreiberStack::tryPush(Env &E, Value V) {
  Loc N = E.M.alloc(NodeName, NodeCells);
  co_await E.store(N + ValOff, V, MemOrder::NonAtomic);
  if (Dom) {
    auto Pin = Dom->pin(E);
    co_await Pin;
  }
  Value HeadPtr = co_await E.load(HeadLoc, Ord.PushHeadLoad);
  auto Attempt = pushAttempt(E, HeadPtr, N, V);
  bool Ok = co_await Attempt;
  if (Dom) {
    auto Unpin = Dom->unpin(E);
    co_await Unpin;
  }
  co_return Ok;
}

Task<Value> TreiberStack::popAttempt(Env &E, Timestamp *HeadTsOut) {
  Value HeadPtr = co_await E.load(HeadLoc, Ord.PopHeadLoad);
  if (HeadTsOut)
    *HeadTsOut = E.M.lastReadTs(E.Tid);
  if (earlyUnpin()) {
    // Seeded fault: leave the critical section as soon as the head
    // snapshot is taken; the node dereferences below run unprotected.
    auto Unpin = Dom->unpin(E);
    co_await Unpin;
  }
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
  auto R = co_await E.cas(HeadLoc, HeadPtr, Next, Ord.PopCas);
  if (R.Success) {
    // Commit point: the acquire CAS removing the node.
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::PopOk, V, 0,
               static_cast<EventId>(PushEv));
    if (Dom) {
      // The node is now unlinked; retire it (still pinned) so the domain
      // frees it after a full grace period.
      auto Ret = Dom->retire(E, Node, NodeCells);
      co_await Ret;
    }
    co_return V;
  }
  Mon.retract(E.M, E.Tid, Ev);
  co_return FailRaceVal;
}

Task<Value> TreiberStack::tryPop(Env &E) {
  if (!Dom)
    return popAttempt(E);
  return pinnedTryPop(E);
}

Task<Value> TreiberStack::pinnedTryPop(Env &E) {
  auto Pin = Dom->pin(E);
  co_await Pin;
  auto Attempt = popAttempt(E);
  Value V = co_await Attempt;
  if (!earlyUnpin()) { // Else the attempt unpinned.
    auto Unpin = Dom->unpin(E);
    co_await Unpin;
  }
  co_return V;
}

Task<Value> TreiberStack::pop(Env &E) {
  if (Dom) {
    auto Pin = Dom->pin(E);
    co_await Pin;
  }
  Timestamp PrevTs = ~0u;
  bool First = true;
  for (;;) {
    Timestamp Ts = 0;
    auto Attempt = popAttempt(E, &Ts);
    Value V = co_await Attempt;
    if (V != FailRaceVal) {
      if (Dom && !earlyUnpin()) { // Else the attempt unpinned.
        auto Unpin = Dom->unpin(E);
        co_await Unpin;
      }
      co_return V;
    }
    // Stutter fingerprint: the head message the failed attempt was based
    // on; re-observing the same message cannot make progress.
    if (!First && Ts == PrevTs)
      co_await E.prune();
    First = false;
    PrevTs = Ts;
    if (earlyUnpin()) {
      // The failed attempt unpinned; re-enter for the retry.
      auto Repin = Dom->pin(E);
      co_await Repin;
    }
  }
}
