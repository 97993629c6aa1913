//===-- lib/Container.h - Simulated container interfaces --------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract interfaces for the simulated concurrent containers, so clients
/// (Message-Passing, SPSC, ...) and experiment drivers can be written once
/// and instantiated with every implementation — mirroring how the paper's
/// clients are verified against specs rather than implementations.
///
/// Conventions: values are nonzero and below the distinguished range (see
/// graph/Event.h); `dequeue`/`pop` return graph::EmptyVal when the
/// container appears empty. Every operation commits its event(s) to the
/// SpecMonitor passed at construction.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_LIB_CONTAINER_H
#define COMPASS_LIB_CONTAINER_H

#include "graph/Event.h"
#include "sim/Scheduler.h"
#include "sim/Task.h"

namespace compass::lib {

/// The seeded library faults of the mutation campaign (src/check). A
/// library that owns a fault takes the mutation as its last constructor
/// argument and applies it at the one place the bug lives; any other
/// value, None included, leaves it pristine.
enum class Mutation : uint8_t {
  None,
  MsQueueRelaxedPublish,  ///< Enqueue's linking CAS relaxed, not release.
  MsQueueSkipDeq,         ///< Dequeue skips over the head's successor.
  TreiberRelaxedPopHead,  ///< Pop's head load relaxed, not acquire.
  TreiberPopBelowTop,     ///< Pop removes the element *below* the top.
  ExchangerEchoValue,     ///< Exchange returns the caller's own value.
  SpscRelaxedTailPublish, ///< Producer's tail store relaxed, not release.
  WsDequeTakeNoFence,     ///< Take's seq-cst fence removed.
  EbrSkipGracePeriod,     ///< Epoch advance skips the announcement scan.
  EbrEarlyUnpin           ///< Pop unpins before dereferencing the node.
};

/// A multi-producer multi-consumer queue on the simulated machine.
class SimQueue {
public:
  virtual ~SimQueue();

  /// Enqueues \p V (always succeeds; lock-free implementations retry).
  virtual sim::Task<void> enqueue(sim::Env &E, rmc::Value V) = 0;

  /// Dequeues one element, or returns graph::EmptyVal if the queue appears
  /// empty (commits a Deq(ε) event in that case).
  virtual sim::Task<rmc::Value> dequeue(sim::Env &E) = 0;

  /// The object id under which events are committed.
  virtual unsigned objId() const = 0;
};

/// A concurrent stack on the simulated machine.
class SimStack {
public:
  virtual ~SimStack();

  virtual sim::Task<void> push(sim::Env &E, rmc::Value V) = 0;

  /// Pops one element, or returns graph::EmptyVal when the stack appears
  /// empty (commits Pop(ε)).
  virtual sim::Task<rmc::Value> pop(sim::Env &E) = 0;

  /// Single-attempt push; returns false on CAS contention without
  /// committing an event (the elimination stack's try_push', Section 4.1).
  virtual sim::Task<bool> tryPush(sim::Env &E, rmc::Value V) = 0;

  /// Single-attempt pop; returns the value, graph::EmptyVal (committing
  /// Pop(ε)), or graph::FailRaceVal on contention (no event).
  virtual sim::Task<rmc::Value> tryPop(sim::Env &E) = 0;

  virtual unsigned objId() const = 0;
};

} // namespace compass::lib

#endif // COMPASS_LIB_CONTAINER_H
