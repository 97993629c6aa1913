//===-- lib/TreiberStackEbr.cpp - Treiber stack with simulated EBR --------===//

#include "lib/TreiberStackEbr.h"

using namespace compass;
using namespace compass::lib;
using namespace compass::rmc;
using namespace compass::sim;
using compass::graph::EmptyVal;
using compass::graph::EventId;
using compass::graph::FailRaceVal;
using compass::graph::OpKind;

TreiberStackEbr::TreiberStackEbr(Machine &M, spec::SpecMonitor &Mon,
                                 std::string Name, unsigned NumThreads,
                                 Mutation Mut)
    : Mon(Mon), Mut(Mut),
      Dom(M, Name + ".ebr", NumThreads,
          Ebr::Options(Mut == Mutation::EbrSkipGracePeriod)) {
  Obj = Mon.registerObject(Name);
  HeadLoc = M.alloc(Name + ".head"); // 0 = empty stack.
}

Task<bool> TreiberStackEbr::pushAttempt(Env &E, Value HeadPtr, Loc N,
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

Task<void> TreiberStackEbr::push(Env &E, Value V) {
  Loc N = E.M.alloc("estk.node", NodeCells);
  co_await E.store(N + ValOff, V, MemOrder::NonAtomic);
  // Pin around the whole operation (native Guard discipline); the push
  // never dereferences the head node, but pinning keeps the protocol
  // uniform and exercises the announcement scan from both operations.
  auto Pin = Dom.pin(E);
  co_await Pin;
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
      break;
  }
  auto Unpin = Dom.unpin(E);
  co_await Unpin;
}

Task<bool> TreiberStackEbr::tryPush(Env &E, Value V) {
  Loc N = E.M.alloc("estk.node", NodeCells);
  co_await E.store(N + ValOff, V, MemOrder::NonAtomic);
  auto Pin = Dom.pin(E);
  co_await Pin;
  Value HeadPtr = co_await E.load(HeadLoc, MemOrder::Relaxed);
  auto Attempt = pushAttempt(E, HeadPtr, N, V);
  bool Ok = co_await Attempt;
  auto Unpin = Dom.unpin(E);
  co_await Unpin;
  co_return Ok;
}

Task<Value> TreiberStackEbr::popAttempt(Env &E, Timestamp *HeadTsOut) {
  Value HeadPtr = co_await E.load(HeadLoc, MemOrder::Acquire);
  if (HeadTsOut)
    *HeadTsOut = E.M.lastReadTs(E.Tid);
  if (Mut == Mutation::EbrEarlyUnpin) {
    // Seeded fault: leave the critical section as soon as the head
    // snapshot is taken; the node dereferences below run unprotected.
    auto Unpin = Dom.unpin(E);
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
  Value V = co_await E.load(Node + ValOff, MemOrder::NonAtomic);
  Value PushEv = co_await E.load(Node + EidOff, MemOrder::NonAtomic);
  EventId Ev = Mon.reserve(E.M, E.Tid);
  auto R = co_await E.cas(HeadLoc, HeadPtr, Next, MemOrder::Acquire);
  if (R.Success) {
    // Commit point: the acquire CAS removing the node. The node is now
    // unlinked; retire it (still pinned) so the domain frees it after a
    // full grace period.
    Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::PopOk, V, 0,
               static_cast<EventId>(PushEv));
    auto Ret = Dom.retire(E, Node, NodeCells);
    co_await Ret;
    co_return V;
  }
  Mon.retract(E.M, E.Tid, Ev);
  co_return FailRaceVal;
}

Task<Value> TreiberStackEbr::tryPop(Env &E) {
  auto Pin = Dom.pin(E);
  co_await Pin;
  auto Attempt = popAttempt(E);
  Value V = co_await Attempt;
  if (Mut != Mutation::EbrEarlyUnpin) { // Else the attempt unpinned.
    auto Unpin = Dom.unpin(E);
    co_await Unpin;
  }
  co_return V;
}

Task<Value> TreiberStackEbr::pop(Env &E) {
  auto Pin = Dom.pin(E);
  co_await Pin;
  Timestamp PrevTs = ~0u;
  bool First = true;
  Value Out = FailRaceVal;
  for (;;) {
    Timestamp Ts = 0;
    auto Attempt = popAttempt(E, &Ts);
    Value V = co_await Attempt;
    if (V != FailRaceVal) {
      Out = V;
      break;
    }
    // Stutter fingerprint: the head message the failed attempt was based
    // on; re-observing the same message cannot make progress.
    if (!First && Ts == PrevTs)
      co_await E.prune();
    First = false;
    PrevTs = Ts;
    if (Mut == Mutation::EbrEarlyUnpin) {
      // The failed attempt unpinned; re-enter for the retry.
      auto Repin = Dom.pin(E);
      co_await Repin;
    }
  }
  if (Mut != Mutation::EbrEarlyUnpin) {
    auto Unpin = Dom.unpin(E);
    co_await Unpin;
  }
  co_return Out;
}
