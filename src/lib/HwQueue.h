//===-- lib/HwQueue.h - Relaxed Herlihy-Wing queue --------------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The relaxed Herlihy-Wing queue [Herlihy & Wing, TOPLAS'90] variant the
/// paper verifies against the graph-only LAT_hb spec (Section 3.2): "the
/// implementation ensures lhb only between matching enqueue-dequeue pairs,
/// but not among enqueues or among dequeues. Enqueues use release
/// operations, and dequeues use acquire ones."
///
/// An enqueue grabs a slot with a release fetch-add on `back` and publishes
/// the element with a release store (the commit point). A dequeue reads a
/// snapshot of `back` (acquire), then scans the slots with acquire loads —
/// which may observe stale empties — claiming the first element it sees
/// with an acquire CAS to Taken; after a fruitless scan it returns empty.
///
/// The paper's point, which experiment E2 reproduces: this implementation
/// satisfies QueueConsistent (LAT_hb) but *not* the abstract-state
/// (LAT_abs_hb) spec — commit points cannot be chosen to maintain a FIFO
/// abstract state without prophecy.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_LIB_HWQUEUE_H
#define COMPASS_LIB_HWQUEUE_H

#include "lib/Container.h"
#include "lib/Orders.h"
#include "spec/SpecMonitor.h"

#include <string>

namespace compass::lib {

class HwQueue final : public SimQueue {
public:
  /// \p Capacity bounds the number of enqueues over the queue's lifetime
  /// (the array variant of the algorithm); exceeding it is fatal.
  HwQueue(rmc::Machine &M, spec::SpecMonitor &Mon, std::string Name,
          unsigned Capacity);

  sim::Task<void> enqueue(sim::Env &E, rmc::Value V) override;
  sim::Task<rmc::Value> dequeue(sim::Env &E) override;

  unsigned objId() const override { return Obj; }

private:
  /// Marks a slot whose element was taken (distinct from 0 = never
  /// written, so a claiming CAS has a unique expected value).
  static constexpr rmc::Value TakenVal = graph::BottomVal;
  static constexpr HwQueueOrders Ord{}; ///< Shared with the native twin.

  spec::SpecMonitor &Mon;
  unsigned Obj;
  unsigned Capacity;
  rmc::Loc Back;  ///< Next free slot index.
  rmc::Loc Items; ///< Items + i: slot i's element (0 empty, TakenVal).
  rmc::Loc Eids;  ///< Ghost: enqueue event id per slot.
};

} // namespace compass::lib

#endif // COMPASS_LIB_HWQUEUE_H
