//===-- lib/SpscRing.h - Lock-free SPSC ring buffer -------------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single-producer single-consumer ring buffer — the Lamport-style
/// queue behind Section 3.2's SPSC discussion, interesting to verify
/// because it contains *no* RMWs at all: correctness rests entirely on
/// release/acquire index handoff. Slots are plain non-atomic cells that
/// alternate ownership between producer and consumer; the machine's race
/// detector is the oracle that the handoff is airtight (weaken either
/// index access and some interleaving races).
///
/// Commit points: enqueue = the release store of tail; successful dequeue
/// = the release store of head; empty dequeue = the acquire read of tail.
///
/// Seeded fault (lib::Mutation): SpscRelaxedTailPublish publishes tail
/// with a relaxed store.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_LIB_SPSCRING_H
#define COMPASS_LIB_SPSCRING_H

#include "lib/Container.h"
#include "spec/SpecMonitor.h"

#include <string>

namespace compass::lib {

class SpscRing {
public:
  /// \p Mut seeds the ring's fault.
  SpscRing(rmc::Machine &M, spec::SpecMonitor &Mon, std::string Name,
           unsigned Capacity, Mutation Mut = Mutation::None);

  /// Producer only: enqueues \p V; false when the ring is full. The first
  /// caller pins the producer thread.
  sim::Task<bool> tryEnqueue(sim::Env &E, rmc::Value V);

  /// Producer only: enqueues \p V, waiting (fairly) while full.
  sim::Task<void> enqueueBlocking(sim::Env &E, rmc::Value V);

  /// Consumer only: dequeues; graph::EmptyVal when the ring appears
  /// empty. The first caller pins the consumer thread.
  sim::Task<rmc::Value> dequeue(sim::Env &E);

  /// Consumer only: dequeues, waiting (fairly) while empty. Never
  /// commits Deq(ε).
  sim::Task<rmc::Value> dequeueBlocking(sim::Env &E);

  unsigned objId() const { return Obj; }

private:
  void checkRole(unsigned &Role, unsigned Tid, const char *What);

  spec::SpecMonitor &Mon;
  unsigned Obj;
  unsigned Capacity;
  Mutation Mut;
  unsigned ProducerTid = ~0u;
  unsigned ConsumerTid = ~0u;
  rmc::Loc HeadIdx; ///< Next index to dequeue (consumer-owned, released).
  rmc::Loc TailIdx; ///< Next index to enqueue (producer-owned, released).
  rmc::Loc Buf;     ///< Capacity na cells, ownership alternating.
  rmc::Loc Eids;    ///< Ghost enqueue-event ids, parallel to Buf.
};

} // namespace compass::lib

#endif // COMPASS_LIB_SPSCRING_H
