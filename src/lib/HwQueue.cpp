//===-- lib/HwQueue.cpp - Relaxed Herlihy-Wing queue ------------------------===//

#include "lib/HwQueue.h"

#include "support/Error.h"

using namespace compass;
using namespace compass::lib;
using namespace compass::rmc;
using namespace compass::sim;
using compass::graph::EmptyVal;
using compass::graph::EventId;
using compass::graph::OpKind;

HwQueue::HwQueue(Machine &M, spec::SpecMonitor &Mon, std::string Name,
                 unsigned Capacity)
    : Mon(Mon), Capacity(Capacity) {
  Obj = Mon.registerObject();
  Back = M.alloc(Name + ".back");
  Items = M.alloc(Name + ".items", Capacity);
  Eids = M.alloc(Name + ".eids", Capacity);
}

Task<void> HwQueue::enqueue(Env &E, Value V) {
  // The release FAA (together with the dequeuer's acquire read of back and
  // RMW release sequences) is what orders a thread's *own* earlier
  // enqueues before any dequeuer's scan — without it, a dequeuer could
  // skip a stale-empty slot 0 while taking the same thread's later slot 1,
  // violating QUEUE-FIFO for program-order-related enqueues.
  Value I = co_await E.fetchAdd(Back, 1, Ord.BackFaa);
  if (I >= Capacity)
    fatalError("HwQueue capacity exceeded; size the workload");
  EventId Ev = Mon.reserve(E.M, E.Tid);
  co_await E.store(Eids + static_cast<Loc>(I), Ev, MemOrder::NonAtomic);
  // Commit point: the release store publishing the element.
  co_await E.store(Items + static_cast<Loc>(I), V, Ord.SlotStore);
  Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::Enq, V);
  co_return;
}

Task<Value> HwQueue::dequeue(Env &E) {
  Value N = co_await E.load(Back, Ord.BackLoad);
  for (Value I = 0; I < N; ++I) {
    Loc Slot = Items + static_cast<Loc>(I);
    // The scan read may be stale (observe an empty slot that has been
    // filled) — this is what makes the implementation weak.
    Value V = co_await E.load(Slot, Ord.SlotLoad);
    if (V == 0 || V == TakenVal)
      continue;
    // The ghost read is na and race-free: the acquire load above read the
    // publisher's release store, which carries the ghost write.
    Value EnqEv =
        co_await E.load(Eids + static_cast<Loc>(I), MemOrder::NonAtomic);
    EventId Ev = Mon.reserve(E.M, E.Tid);
    // Acquire, not acq-rel: "dequeues use acquire ones" (Section 3.1). A
    // releasing claim would publish the *dequeuer's* logical view through
    // the Taken message, making later scanners "know" enqueues they never
    // synchronized with and flagging spurious QUEUE-EMPDEQ violations.
    auto R = co_await E.cas(Slot, V, TakenVal, Ord.ClaimCas);
    if (R.Success) {
      // Commit point: the claiming CAS (same scheduler step).
      Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::DeqOk, V, 0,
                 static_cast<EventId>(EnqEv));
      co_return V;
    }
    Mon.retract(E.M, E.Tid, Ev);
  }
  EventId Ev = Mon.reserve(E.M, E.Tid);
  Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::DeqEmpty, EmptyVal);
  co_return EmptyVal;
}
