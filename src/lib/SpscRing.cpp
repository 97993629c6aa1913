//===-- lib/SpscRing.cpp - Lock-free SPSC ring buffer ----------------------===//

#include "lib/SpscRing.h"

#include "support/Error.h"

using namespace compass;
using namespace compass::lib;
using namespace compass::rmc;
using namespace compass::sim;
using compass::graph::EmptyVal;
using compass::graph::EventId;
using compass::graph::OpKind;

SpscRing::SpscRing(Machine &M, spec::SpecMonitor &Mon, std::string Name,
                   unsigned Capacity, Mutation Mut)
    : Mon(Mon), Capacity(Capacity), Mut(Mut) {
  Obj = Mon.registerObject();
  HeadIdx = M.alloc(Name + ".head");
  TailIdx = M.alloc(Name + ".tail");
  Buf = M.alloc(Name + ".buf", Capacity);
  Eids = M.alloc(Name + ".eids", Capacity);
}

void SpscRing::checkRole(unsigned &Role, unsigned Tid, const char *What) {
  if (Role == ~0u)
    Role = Tid;
  else if (Role != Tid)
    fatalError(std::string("SpscRing: second thread acting as ") + What);
}

Task<bool> SpscRing::tryEnqueue(Env &E, Value V) {
  checkRole(Pinned.Producer, E.Tid, "producer");
  Value T = co_await E.load(TailIdx, MemOrder::Relaxed); // Own writes.
  Value H = co_await E.load(HeadIdx, MemOrder::Acquire);
  if (T - H == Capacity)
    co_return false; // Full (as far as the producer can see).
  Loc Slot = Buf + static_cast<Loc>(T % Capacity);
  // The slot is producer-owned: the consumer released indices < H + Cap
  // back to us through its head store, which the acquire above joined.
  co_await E.store(Slot, V, MemOrder::NonAtomic);
  EventId Ev = Mon.reserve(E.M, E.Tid);
  co_await E.store(Eids + static_cast<Loc>(T % Capacity), Ev,
                   MemOrder::NonAtomic);
  // SpscRelaxedTailPublish relaxes this store, so the consumer's acquire
  // of tail no longer brings the slot write with it.
  co_await E.store(TailIdx, T + 1,
                   Mut == Mutation::SpscRelaxedTailPublish
                       ? MemOrder::Relaxed
                       : MemOrder::Release);
  // Commit point: the tail release publishing the slot.
  Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::Enq, V);
  co_return true;
}

Task<void> SpscRing::enqueueBlocking(Env &E, Value V) {
  for (;;) {
    auto Try = tryEnqueue(E, V);
    bool Ok = co_await Try;
    if (Ok)
      co_return;
    // Fair wait until the consumer frees a slot.
    Value T = co_await E.load(TailIdx, MemOrder::Relaxed);
    co_await E.spinUntil(
        HeadIdx,
        [T, Cap = Capacity](Value H) { return T - H < Cap; },
        MemOrder::Acquire);
  }
}

Task<Value> SpscRing::dequeue(Env &E) { return dequeueImpl(E, false); }

Task<Value> SpscRing::dequeueBlocking(Env &E) { return dequeueImpl(E, true); }

Task<Value> SpscRing::dequeueImpl(Env &E, bool Blocking) {
  checkRole(Pinned.Consumer, E.Tid, "consumer");
  Value H = co_await E.load(HeadIdx, MemOrder::Relaxed); // Own writes.
  if (Blocking) {
    // Fair wait until the producer publishes a slot.
    co_await E.spinUntil(
        TailIdx, [H](Value T) { return T != H; }, MemOrder::Acquire);
  } else {
    Value T = co_await E.load(TailIdx, MemOrder::Acquire);
    if (H == T) {
      // Commit point (empty): the acquire read of tail.
      EventId Ev = Mon.reserve(E.M, E.Tid);
      Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::DeqEmpty, EmptyVal);
      co_return EmptyVal;
    }
  }
  Loc Slot = Buf + static_cast<Loc>(H % Capacity);
  Value V = co_await E.load(Slot, MemOrder::NonAtomic);
  Value EnqEv = co_await E.load(Eids + static_cast<Loc>(H % Capacity),
                                MemOrder::NonAtomic);
  EventId Ev = Mon.reserve(E.M, E.Tid);
  co_await E.store(HeadIdx, H + 1, MemOrder::Release);
  // Commit point: the head release (which also hands the slot back).
  Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::DeqOk, V, 0,
             static_cast<EventId>(EnqEv));
  co_return V;
}
