//===-- lib/Exchanger.cpp - Elimination exchanger with helping -------------===//

#include "lib/Exchanger.h"

#include "support/Error.h"

using namespace compass;
using namespace compass::lib;
using namespace compass::rmc;
using namespace compass::sim;
using compass::graph::BottomVal;
using compass::graph::EventId;
using compass::graph::OpKind;

Exchanger::Exchanger(Machine &M, spec::SpecMonitor &Mon, std::string Name,
                     Mutation Mut)
    : Mon(Mon), Mut(Mut) {
  Obj = Mon.registerObject();
  Slot = M.alloc(Name + ".slot");
}

Task<Value> Exchanger::exchange(Env &E, Value V, unsigned Attempts) {
  if (V == BottomVal || V == 0)
    fatalError("exchanged values must be nonzero and not ⊥");

  for (unsigned Round = 0; Round != Attempts; ++Round) {
    Value SlotVal = co_await E.load(Slot, Ord.SlotLoad);
    if (SlotVal == 0) {
      // No offer present: install our own.
      Loc Off = E.M.alloc("xchg.offer", 3);
      co_await E.store(Off + ValOff, V, MemOrder::NonAtomic);
      co_await E.store(Off + TidOff, E.Tid, MemOrder::NonAtomic);
      auto Install = co_await E.cas(Slot, 0, Off, Ord.InstallCas);
      if (!Install.Success)
        continue; // Someone else installed; retry the round.

      // Withdraw the offer; failure means a partner committed us.
      auto Cancel = co_await E.cas(Off + HoleOff, 0, HoleCancel,
                                   Ord.CancelCas, Ord.MatchRead);
      if (Cancel.Success) {
        co_await E.cas(Slot, Off, 0, Ord.ClearCas); // Uninstall.
        continue;
      }
      // Matched: the failing acquire CAS read the helper's release CAS,
      // acquiring both events (the local postcondition of Figure 5).
      co_await E.cas(Slot, Off, 0, Ord.ClearCas); // Cleanup.
      co_return matched(V, Cancel.Old);
    }

    // An offer is present: try to be the helper.
    Loc Off = static_cast<Loc>(SlotVal);
    Value PartnerVal = co_await E.load(Off + ValOff, MemOrder::NonAtomic);
    Value PartnerTid = co_await E.load(Off + TidOff, MemOrder::NonAtomic);
    EventId HelpeeEv = Mon.reserve(E.M, E.Tid);
    EventId MyEv = Mon.reserve(E.M, E.Tid);
    auto R = co_await E.cas(Off + HoleOff, 0, V, Ord.HelpCas);
    if (R.Success) {
      // Commit point of BOTH exchanges: helpee first, then us, in one
      // scheduler step (Section 4.2's atomic pairing).
      Mon.commitExchangePair(E.M, E.Tid, MyEv, V,
                             static_cast<unsigned>(PartnerTid), HelpeeEv,
                             PartnerVal, Obj);
      co_await E.cas(Slot, Off, 0, Ord.ClearCas); // Cleanup.
      co_return matched(V, PartnerVal);
    }
    Mon.retract(E.M, E.Tid, HelpeeEv);
    Mon.retract(E.M, E.Tid, MyEv);
    co_await E.cas(Slot, Off, 0, Ord.ClearCas); // Help clear.
  }

  // Give up: a failed exchange, committed with ⊥ (Figure 5's failure
  // disjunct). Its commit point is here; the logical view is whatever the
  // thread has synchronized with.
  EventId Ev = Mon.reserve(E.M, E.Tid);
  Mon.commit(E.M, E.Tid, Ev, Obj, OpKind::Exchange, V, BottomVal);
  co_return BottomVal;
}
