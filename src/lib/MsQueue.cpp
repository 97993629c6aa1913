//===-- lib/MsQueue.cpp - Michael-Scott queue (release/acquire) ------------===//

#include "lib/MsQueue.h"

using namespace compass;
using namespace compass::lib;
using namespace compass::rmc;
using namespace compass::sim;
using compass::graph::EmptyVal;
using compass::graph::EventId;
using compass::graph::OpKind;

MsQueue::MsQueue(Machine &M, spec::SpecMonitor &Mon, std::string Name,
                 SyncProfile Profile, Mutation Mut)
    : Mon(Mon), Profile(Profile), Mut(Mut) {
  Obj = Mon.registerObject(Name);
  Loc Sentinel = M.alloc(Name + ".sentinel", 3);
  Head = M.alloc(Name + ".head", 1, Sentinel);
  Tail = M.alloc(Name + ".tail", 1, Sentinel);
}

MemOrder MsQueue::ptrLoadOrder() const {
  return Profile == SyncProfile::RelAcq ? MemOrder::Acquire
                                        : MemOrder::Relaxed;
}

MemOrder MsQueue::publishCasOrder() const {
  return Profile == SyncProfile::RelAcq ? MemOrder::Release
                                        : MemOrder::Relaxed;
}

Task<void> MsQueue::enqueue(Env &E, Value V) {
  Loc N = E.M.alloc("msq.node", 3);
  co_await E.store(N + ValOff, V, MemOrder::NonAtomic);

  // Stutter detection: an iteration that observes the same (tail, next)
  // pair as the previous failed one made no progress (see Env::prune).
  Value PrevTail = ~0ull, PrevNext = ~0ull;
  for (;;) {
    Value TailPtr = co_await E.load(Tail, ptrLoadOrder());
    if (fenced())
      co_await E.fence(MemOrder::Acquire);
    Loc Last = static_cast<Loc>(TailPtr);
    Value Next = co_await E.load(Last + NextOff, ptrLoadOrder());
    if (fenced())
      co_await E.fence(MemOrder::Acquire);
    if (TailPtr == PrevTail && Next == PrevNext)
      co_await E.prune();
    PrevTail = TailPtr;
    PrevNext = Next;

    if (Next != 0) {
      // Tail is lagging; help advance it and retry. The helping CAS
      // publishes an existing node, so the fenced profile needs a
      // release fence before it too.
      if (fenced())
        co_await E.fence(MemOrder::Release);
      co_await E.cas(Tail, TailPtr, Next, publishCasOrder());
      continue;
    }
    EventId Ev = Mon.reserve(E.M, E.Tid);
    co_await E.store(N + EidOff, Ev, MemOrder::NonAtomic);
    if (fenced())
      co_await E.fence(MemOrder::Release);
    // MsQueueRelaxedPublish relaxes this CAS, so the node's non-atomic
    // payload is no longer published to the dequeuer.
    auto R = co_await E.cas(Last + NextOff, 0, N,
                            Mut == Mutation::MsQueueRelaxedPublish
                                ? MemOrder::Relaxed
                                : publishCasOrder());
    if (R.Success) {
      // Commit point: the CAS linking the node (made releasing either by
      // its own ordering or by the preceding release fence).
      Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::Enq, V);
      if (fenced())
        co_await E.fence(MemOrder::Release);
      co_await E.cas(Tail, TailPtr, N, publishCasOrder());
      co_return;
    }
    Mon.retract(E.M, E.Tid, Ev);
  }
}

Task<Value> MsQueue::dequeue(Env &E) { return dequeueImpl(E, false); }

Task<Value> MsQueue::dequeueBlocking(Env &E) { return dequeueImpl(E, true); }

Task<Value> MsQueue::dequeueImpl(Env &E, bool Blocking) {
  Value PrevHead = ~0ull, PrevNext = ~0ull;
  for (;;) {
    Value HeadPtr = co_await E.load(Head, ptrLoadOrder());
    if (fenced())
      co_await E.fence(MemOrder::Acquire);
    Loc First = static_cast<Loc>(HeadPtr);
    Value Next;
    if (Blocking) {
      // Fair wait for a successor instead of an empty answer. If other
      // dequeuers advance head meanwhile, our CAS below fails and we
      // retry against the new head.
      Next = co_await E.spinUntil(
          First + NextOff, [](Value V) { return V != 0; },
          ptrLoadOrder() == MemOrder::Relaxed ? MemOrder::Relaxed
                                              : MemOrder::Acquire);
      if (fenced())
        co_await E.fence(MemOrder::Acquire);
    } else {
      Next = co_await E.load(First + NextOff, ptrLoadOrder());
      if (fenced())
        co_await E.fence(MemOrder::Acquire);
      if (Next == 0) {
        // Commit point (empty): the read of a null next.
        EventId Ev = Mon.reserve(E.M, E.Tid);
        Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::DeqEmpty, EmptyVal);
        co_return EmptyVal;
      }
    }
    if (HeadPtr == PrevHead && Next == PrevNext)
      co_await E.prune();
    PrevHead = HeadPtr;
    PrevNext = Next;

    Loc Node = static_cast<Loc>(Next);
    if (Mut == Mutation::MsQueueSkipDeq) {
      // Seeded fault: when the first node already has a successor, unlink
      // both and return the second value; the first is lost (FIFO
      // violation).
      Value NextNext = co_await E.load(Node + NextOff, ptrLoadOrder());
      if (NextNext != 0) {
        Next = NextNext;
        Node = static_cast<Loc>(NextNext);
      }
    }
    Value V = co_await E.load(Node + ValOff, MemOrder::NonAtomic);
    Value EnqEv = co_await E.load(Node + EidOff, MemOrder::NonAtomic);
    EventId Ev = Mon.reserve(E.M, E.Tid);
    if (fenced())
      co_await E.fence(MemOrder::Release);
    auto R = co_await E.cas(Head, HeadPtr, Next,
                            Profile == SyncProfile::RelAcq
                                ? MemOrder::AcqRel
                                : MemOrder::Relaxed);
    if (R.Success) {
      // Commit point: the CAS advancing head; so edge to the enqueue
      // whose ghost id the node carries.
      Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::DeqOk, V, 0,
                 static_cast<EventId>(EnqEv));
      co_return V;
    }
    Mon.retract(E.M, E.Tid, Ev);
  }
}
