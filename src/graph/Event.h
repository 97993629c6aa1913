//===-- graph/Event.h - Library operation events ----------------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Events of library operations, following Section 3.1 of the paper: each
/// committed operation is represented by an event carrying its type (with
/// payload values) and its *logical view* — the set of events of
/// operations that happen-before it (the paper's `logview`, which realizes
/// the local-happens-before relation lhb of Yacovet). The paper's events
/// also carry the *physical view* at the commit point; no spec or check
/// reads it, so events here leave it out.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_GRAPH_EVENT_H
#define COMPASS_GRAPH_EVENT_H

#include "rmc/Memory.h"
#include "support/IdSet.h"

#include <cstdint>
#include <string>

namespace compass::graph {

/// Identifies an event within one simulation's global event space.
using EventId = uint32_t;

/// Distinguished values used by the libraries and their specs.
/// The paper writes them ε (empty), ⊥ (failed exchange), SENTINEL and
/// FAIL_RACE (Section 4.1).
inline constexpr rmc::Value EmptyVal = ~0ull;        ///< ε
inline constexpr rmc::Value BottomVal = ~0ull - 1;   ///< ⊥
inline constexpr rmc::Value SentinelVal = ~0ull - 2; ///< SENTINEL
inline constexpr rmc::Value FailRaceVal = ~0ull - 3; ///< FAIL_RACE

/// The operation an event stands for.
enum class OpKind : uint8_t {
  Invalid,   ///< Reserved or retracted, never committed.
  Enq,       ///< Enq(v): v in V1.
  DeqOk,     ///< Deq(v): v in V1.
  DeqEmpty,  ///< Deq(ε).
  Push,      ///< Push(v): v in V1.
  PopOk,     ///< Pop(v): v in V1. Also the work-stealing owner's take.
  PopEmpty,  ///< Pop(ε).
  Exchange,  ///< Exchange(v1, v2): own value V1, partner value V2 (⊥ if
             ///< the exchange failed).
  Steal,     ///< Steal(v): a thief's successful steal (work-stealing
             ///< deque, the paper's Section 6 future work).
  StealEmpty ///< Steal(ε): a thief found the deque empty.
};

const char *opKindName(OpKind K);

/// One committed library operation.
struct Event {
  OpKind Kind = OpKind::Invalid;
  rmc::Value V1 = 0; ///< Primary payload (see OpKind).
  rmc::Value V2 = 0; ///< Secondary payload (exchanger only).

  unsigned ObjId = 0;  ///< The library object this event belongs to.
  unsigned Thread = 0; ///< Executing thread.

  /// Global commit sequence number: the order in which commits update the
  /// shared state (the paper's commit order `<` from Section 4.2).
  uint32_t CommitIdx = 0;

  /// Logical view at the commit point: ids of all events that happen-before
  /// this one, *including this event itself* (the paper's `e ∈ M'`).
  IdSet LogView;

  std::string str(EventId Id) const;
};

} // namespace compass::graph

#endif // COMPASS_GRAPH_EVENT_H
