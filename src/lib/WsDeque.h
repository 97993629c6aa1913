//===-- lib/WsDeque.h - Chase-Lev work-stealing deque -----------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Chase-Lev work-stealing deque with the C11 access modes of Lê,
/// Pop, Cohen & Zappa Nardelli [PPoPP'13] — the library the paper's
/// Section 6 names as future work for the Compass approach. One *owner*
/// thread pushes and takes at the bottom; any number of *thieves* steal
/// from the top:
///
///  * push: relaxed buffer store, release fence, relaxed bottom store
///    (the commit point — the fence makes the bottom message carry the
///    element and the event);
///  * take: relaxed bottom decrement, SC fence, relaxed top read; the
///    last-element race is resolved by an SC CAS on top;
///  * steal: acquire top, SC fence, acquire bottom, relaxed buffer read,
///    SC CAS on top (the commit point).
///
/// The buffer is sized for the workload's lifetime pushes (no resizing,
/// hence no index wrap-around and no buffer reuse races — the simulated
/// twin of a sufficiently large ring).
///
/// Events: Push / PopOk / PopEmpty (owner), Steal / StealEmpty (thieves),
/// checked against the SeqSpec::WsDeque table entry (spec/SeqSpec.h) by
/// spec::checkConsistent and spec::checkAbsState, and by the
/// SeqSpec::WsDeque linearization search.
///
/// Seeded fault (lib::Mutation): WsDequeTakeNoFence drops take's SC fence.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_LIB_WSDEQUE_H
#define COMPASS_LIB_WSDEQUE_H

#include "lib/Container.h"
#include "lib/Orders.h"
#include "spec/SpecMonitor.h"
#include "support/SmallVec.h"

#include <string>

namespace compass::lib {

class WsDeque {
public:
  /// \p Capacity bounds lifetime pushes. \p Mut seeds the deque's fault.
  WsDeque(rmc::Machine &M, spec::SpecMonitor &Mon, std::string Name,
          unsigned Capacity, Mutation Mut = Mutation::None);

  /// WsDequeOrders, with no TakeFence (Relaxed) under WsDequeTakeNoFence.
  static WsDequeOrders orders(Mutation Mut);

  /// Owner: pushes \p V at the bottom. The first owner operation pins the
  /// owner thread; calling from another thread is fatal.
  sim::Task<void> push(sim::Env &E, rmc::Value V);

  /// Owner: takes from the bottom; graph::EmptyVal when empty.
  sim::Task<rmc::Value> take(sim::Env &E);

  /// Thief: steals from the top; graph::EmptyVal when observably empty,
  /// graph::FailRaceVal when it lost the race for the top element.
  sim::Task<rmc::Value> steal(sim::Env &E);

  unsigned objId() const { return Obj; }

  /// One owner-side shadow entry: the value and event id the owner pushed
  /// at an index, while not yet taken.
  struct ShadowEntry {
    rmc::Value Val = 0;
    graph::EventId Ev = 0;
    bool Live = false;
  };

  /// The owner's op-time state: the owner thread (pinned by its first
  /// operation) and the shadow of its own pushes, one entry per lifetime
  /// index, used to keep the take commit in the same scheduler step as its
  /// decisive instruction (plain ghost state; the simulated reads still
  /// happen and are asserted against it). It is the deque's only state
  /// outside the machine that its operations change, which copy-on-write
  /// bodies save and restore (Workload::Body::CowSave). Inline, so a deque
  /// rebuilt every execution allocates no shadow.
  struct OwnerState {
    unsigned Tid = ~0u;
    SmallVec<ShadowEntry, 8> Shadow; ///< Capacity entries.
  };
  const OwnerState &owner() const { return Own; }
  void setOwner(const OwnerState &O) { Own = O; }

private:
  void checkOwner(unsigned Tid);

  spec::SpecMonitor &Mon;
  unsigned Obj;
  unsigned Capacity;
  WsDequeOrders Ord;
  rmc::Loc Top;    ///< Next index to steal.
  rmc::Loc Bottom; ///< Next index to push.
  rmc::Loc Buf;    ///< Capacity cells, one per lifetime index.
  rmc::Loc Eids;   ///< Ghost push-event ids, parallel to Buf.
  OwnerState Own;
};

} // namespace compass::lib

#endif // COMPASS_LIB_WSDEQUE_H
