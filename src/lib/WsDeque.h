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
/// checked by spec::checkWsDequeConsistent, the abstract double-ended
/// replay, and the SeqSpec::WsDeque linearization search.
///
/// Seeded fault (lib::Mutation): WsDequeTakeNoFence drops take's SC fence.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_LIB_WSDEQUE_H
#define COMPASS_LIB_WSDEQUE_H

#include "lib/Container.h"
#include "spec/SpecMonitor.h"

#include <map>
#include <string>

namespace compass::lib {

class WsDeque {
public:
  /// \p Capacity bounds lifetime pushes. \p Mut seeds the deque's fault.
  WsDeque(rmc::Machine &M, spec::SpecMonitor &Mon, std::string Name,
          unsigned Capacity, Mutation Mut = Mutation::None);

  /// Owner: pushes \p V at the bottom. The first owner operation pins the
  /// owner thread; calling from another thread is fatal.
  sim::Task<void> push(sim::Env &E, rmc::Value V);

  /// Owner: takes from the bottom; graph::EmptyVal when empty.
  sim::Task<rmc::Value> take(sim::Env &E);

  /// Thief: steals from the top; graph::EmptyVal when observably empty,
  /// graph::FailRaceVal when it lost the race for the top element.
  sim::Task<rmc::Value> steal(sim::Env &E);

  unsigned objId() const { return Obj; }

private:
  void checkOwner(unsigned Tid);

  spec::SpecMonitor &Mon;
  unsigned Obj;
  unsigned Capacity;
  Mutation Mut;
  unsigned OwnerTid = ~0u;
  rmc::Loc Top;    ///< Next index to steal.
  rmc::Loc Bottom; ///< Next index to push.
  rmc::Loc Buf;    ///< Capacity cells, one per lifetime index.
  rmc::Loc Eids;   ///< Ghost push-event ids, parallel to Buf.

  /// Owner-side shadow of its own pushes (index -> value and event id),
  /// used to keep the take commit in the same scheduler step as its
  /// decisive instruction. Plain ghost state; the simulated reads still
  /// happen and are asserted against it.
  struct ShadowEntry {
    rmc::Value Val;
    graph::EventId Ev;
  };
  std::map<uint64_t, ShadowEntry> OwnerShadow;
};

} // namespace compass::lib

#endif // COMPASS_LIB_WSDEQUE_H
