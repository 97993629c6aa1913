//===-- rmc/Memory.h - Per-location write histories ------------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated memory: each location holds its full *history* of write
/// messages, ordered by timestamp — the `ℓ ↦ h` atomic points-to of the
/// paper's Section 2.3, where `h ∈ Time --fin--> Val × View`. Messages
/// additionally carry logical views (see Knowledge.h). Histories are
/// append-only: a relaxed write is placed at the end of the modification
/// order (a documented strengthening over insertion-based semantics; see
/// DESIGN.md Section 4).
///
/// Histories are stored structure-of-arrays (DESIGN.md Section 11): a cell
/// keeps parallel Vals/Knows arrays plus a length watermark, and a
/// message's timestamp *is* its index. Appends overwrite retained slots in
/// place, so the per-message Knowledge heap reaches steady state once and
/// is never freed between executions. Two undo logs (appends and lifecycle
/// transitions) make any earlier memory state reachable by popping — the
/// epoch-indexed trimming that the copy-on-write execution engine uses to
/// rewind memory to a decision boundary without replaying the prefix.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_RMC_MEMORY_H
#define COMPASS_RMC_MEMORY_H

#include "rmc/Knowledge.h"
#include "rmc/View.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace compass::rmc {

/// Values stored in simulated memory. Pointers into simulated memory are
/// represented as `Loc` values; 0 conventionally encodes null.
using Value = uint64_t;

/// Reclamation lifecycle of a cell. Allocation never reuses locations
/// within one simulation, so the lifecycle is monotonic: Live → Retired →
/// Freed. Accesses to Retired cells are still legal (a pinned reader may
/// hold the node); accesses to Freed cells are use-after-free faults.
enum class CellLife : uint8_t { Live, Retired, Freed };

/// A reader pinned at the moment a cell was retired: thread id plus that
/// thread's pin-session number (so a later re-pin of the same thread is
/// not mistaken for the protected critical section).
struct PinRef {
  unsigned Tid = 0;
  uint64_t Session = 0;
};

/// A single memory cell and its complete write history, structure-of-arrays
/// with a length watermark. The message at timestamp Ts lives at index Ts
/// in each array; slots beyond Len are retained storage whose Knowledge
/// heaps are reused by later appends.
struct Cell {
  std::vector<Value> Vals;
  std::vector<Knowledge> Knows;
  size_t Len = 0; ///< Messages [0, Len) are live.

  std::string Name;  ///< Base debug name ("q.head", "s.slot", ...).
  unsigned Off = ~0u; ///< Batch offset for multi-cell allocs (~0u: none).
  CellLife Life = CellLife::Live; ///< Reclamation lifecycle state.
  std::vector<PinRef> RetirePins; ///< Readers pinned when it was retired.

  Timestamp latestTs() const { return static_cast<Timestamp>(Len - 1); }
  Value latestVal() const { return Vals[Len - 1]; }
  Value val(Timestamp Ts) const { return Vals[Ts]; }
  const Knowledge &know(Timestamp Ts) const { return Knows[Ts]; }
};

/// The machine's memory: an array of cells with allocation.
///
/// Allocation never reuses locations within one simulation, so simulated
/// ABA through reallocation cannot occur; simulated data structures that
/// want to exercise reuse must model it explicitly.
///
/// The store is an *arena*: reset() rewinds the allocation watermark
/// without freeing cell storage, so a Memory reused across the explorer's
/// millions of replays reaches steady-state capacity once and stops
/// allocating (cell vector, history arrays, and name strings are all
/// recycled in allocation order, which replays deterministically).
class Memory {
public:
  /// Allocates \p Count fresh cells, named Name, Name+1, ... Each starts
  /// with an initial message at timestamp 0 holding \p Init and empty
  /// knowledge (everyone can read it). Returns the first location. A
  /// retained cell keeps its name string and is assigned \p Name only
  /// when that differs, so a steady-state allocation builds no string.
  Loc alloc(std::string_view Name, unsigned Count = 1, Value Init = 0);

  /// Number of allocated (live) cells.
  unsigned size() const { return static_cast<unsigned>(Live); }

  const Cell &cell(Loc L) const;
  Cell &cell(Loc L);

  /// Debug name of \p L, built on demand ("slot+3" for batch cells). Only
  /// trace/diagnostic paths pay for the string.
  std::string cellName(Loc L) const;

  /// Appends a message with the next timestamp to \p L and returns that
  /// timestamp. The slot's retained Knowledge is overwritten in place.
  Timestamp append(Loc L, Value V, const Knowledge &Know);

  /// Mutable Knowledge of the message at \p Ts (the writer raises the
  /// message view with its own new timestamp right after appending).
  Knowledge &knowRef(Loc L, Timestamp Ts) { return cell(L).Knows[Ts]; }

  /// Messages of \p L readable by a thread whose view holds \p From:
  /// all timestamps in [From, latest]. Returns the count; the i-th
  /// readable message has timestamp From + i.
  unsigned countReadableFrom(Loc L, Timestamp From) const;

  /// Records a lifecycle transition of \p L in the undo log, then applies
  /// it. Called by the machine's retire/free ghost steps.
  void setLife(Loc L, CellLife NewLife);

  /// Rewinds the allocation watermark to empty while keeping all cell
  /// storage for reuse (see class comment), and clears the undo logs.
  void reset();

  //===--------------------------------------------------------------------===//
  // Copy-on-write support: epochs and trimming.
  //===--------------------------------------------------------------------===//

  /// A point in this memory's mutation history. Capturing one is O(1);
  /// trimToEpoch pops the undo logs back to it, touching only state the
  /// divergent suffix created.
  struct Epoch {
    size_t Live = 0;       ///< Allocation watermark.
    size_t Appends = 0;    ///< AppendLog length.
    size_t LifeEvents = 0; ///< Live LifeLog records.
  };

  Epoch epoch() const { return {Live, AppendLog.size(), LifeLive}; }

  /// Rewinds to \p E: pops appends (decrementing cell watermarks) and
  /// lifecycle transitions (restoring Life + RetirePins) recorded after
  /// the epoch, then rewinds the allocation watermark.
  void trimToEpoch(const Epoch &E);

private:
  std::vector<Cell> Cells; ///< Cells[0..Live) are allocated; the rest is
                           ///< retained storage from earlier executions.
  size_t Live = 0;

  /// Undo log of appends: one Loc per append, in order. Popping one
  /// decrements that cell's watermark (slot contents stay for reuse).
  std::vector<Loc> AppendLog;

  /// Undo log of lifecycle transitions: [0, LifeLive) are live; records
  /// past the watermark keep their PrevPins storage for reuse.
  struct LifeEvent {
    Loc L = 0;
    CellLife PrevLife = CellLife::Live;
    std::vector<PinRef> PrevPins;
  };
  std::vector<LifeEvent> LifeLog;
  size_t LifeLive = 0;
};

} // namespace compass::rmc

#endif // COMPASS_RMC_MEMORY_H
