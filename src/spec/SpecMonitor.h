//===-- spec/SpecMonitor.h - Commit-point event recording -------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime realization of the paper's logically atomic specifications:
/// library implementations drive this monitor at their commit points,
/// extending the shared event graph exactly as the LAT postconditions of
/// Figures 2, 4 and 5 describe — a fresh event with the commit point's
/// logical view, so edges to matched events, and (for exchangers) *paired*
/// commits performed atomically by the helper (Section 4.2's helping
/// pattern).
///
/// Protocol:
///  * `reserve(M, T)` allocates an event id and injects it into thread T's
///    knowledge, so that the upcoming commit instruction's message carries
///    the id (the paper's `e ∈ M'` flowing through view transfer). Between
///    reserve and commit/retract the thread must not perform release
///    writes other than the commit instruction itself.
///  * `commit(...)` — in the same scheduler step as the successful commit
///    instruction — fills in the event. The recorded logical view is the
///    thread's known event ids restricted to *committed* events (observing
///    a reserved id carries no information) plus the event itself.
///  * `retract(...)` abandons a reservation when the would-be commit
///    instruction failed (e.g. a lost CAS).
///  * `commitExchangePair(...)` performs the helpee-then-helper double
///    commit with adjacent commit indices and symmetric so edges; both
///    events share the helper's logical view (paper Figure 5, with the
///    footnote-7 refinement that the helpee's logical view does not contain
///    the helper's event).
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SPEC_SPECMONITOR_H
#define COMPASS_SPEC_SPECMONITOR_H

#include "graph/EventGraph.h"
#include "rmc/Machine.h"

#include <optional>

namespace compass::spec {

/// Records library events at commit points; see file comment.
class SpecMonitor {
public:
  /// Rewinds to the freshly constructed state, keeping heap storage for
  /// reuse. A monitor reused across the explorer's executions (the arena
  /// pattern) reaches steady-state capacity once.
  void reset() {
    G.reset();
    NumObjects = 0;
  }

  /// A point in the monitor's mutation history; O(1) to capture, O(delta)
  /// to rewind to. The copy-on-write engine stores these in its snapshot
  /// slots instead of deep-copying the monitor.
  struct Epoch {
    graph::EventGraph::Epoch G;
    unsigned NumObjects = 0;
  };

  Epoch epoch() const { return {G.epoch(), NumObjects}; }

  void trimToEpoch(const Epoch &E) {
    G.trimToEpoch(E.G);
    NumObjects = E.NumObjects;
  }

  /// Registers a library object; returns its ObjId.
  unsigned registerObject() { return NumObjects++; }

  /// Allocates an event id and injects it into thread \p T's knowledge.
  graph::EventId reserve(rmc::Machine &M, unsigned T);

  /// Abandons a reservation (failed commit instruction).
  void retract(rmc::Machine &M, unsigned T, graph::EventId Id);

  /// Commits event \p Id for thread \p T with the given payload; records
  /// the so edge \p SoFrom -> Id when present (matched producer).
  void commit(rmc::Machine &M, unsigned T, graph::EventId Id,
              unsigned ObjId, graph::OpKind Kind, rmc::Value V1,
              rmc::Value V2 = 0,
              std::optional<graph::EventId> SoFrom = std::nullopt);

  /// Commits a matched exchange pair atomically: first the helpee's event
  /// \p HelpeeId (performed on behalf of thread \p HelpeeT), then the
  /// helper's \p HelperId (thread \p HelperT). Values cross: helpee
  /// exchanged \p HelpeeVal for \p HelperVal.
  void commitExchangePair(rmc::Machine &M, unsigned HelperT,
                          graph::EventId HelperId, rmc::Value HelperVal,
                          unsigned HelpeeT, graph::EventId HelpeeId,
                          rmc::Value HelpeeVal, unsigned ObjId);

  const graph::EventGraph &graph() const { return G; }

private:
  /// Writes into \p Out (an event slot's logical view, whose storage is
  /// reused) thread \p T's known ids restricted to committed events.
  void committedKnown(const rmc::Machine &M, unsigned T, IdSet &Out) const;

  graph::EventGraph G;
  unsigned NumObjects = 0; ///< Registered objects; the next ObjId.
};

} // namespace compass::spec

#endif // COMPASS_SPEC_SPECMONITOR_H
