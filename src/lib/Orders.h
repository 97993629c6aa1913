//===-- lib/Orders.h - One memory-order table per algorithm -----*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The access modes of every algorithm with a native twin, declared once.
/// A table's default member initializers are the orders the paper
/// verifies. The simulated library model-checks them (its order faults and
/// MsQueue's sync profiles relax named fields of a copy), and the native
/// template compiles the same fields through stdOrder(), so flipping a
/// field here changes both tiers. Node payloads stay non-atomic; a CAS
/// fails with a relaxed read unless a field says otherwise; a Relaxed
/// fence field means no fence.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_LIB_ORDERS_H
#define COMPASS_LIB_ORDERS_H

#include "rmc/MemOrder.h"

#include <atomic>

namespace compass::lib {

using rmc::MemOrder;

/// Michael-Scott queue: purely release/acquire (Section 3.2).
struct MsQueueOrders {
  MemOrder TailLoad = MemOrder::Acquire; ///< Enqueue's read of tail.
  MemOrder NextLoad = MemOrder::Acquire; ///< Every read of a node's next.
  MemOrder TailCas = MemOrder::Release;  ///< Helping or swinging tail.
  MemOrder LinkCas = MemOrder::Release;  ///< Linking the node (commit).
  MemOrder HeadLoad = MemOrder::Acquire; ///< Dequeue's read of head.
  MemOrder HeadCas = MemOrder::AcqRel;   ///< Advancing head (commit).
  bool operator==(const MsQueueOrders &) const = default;
};

/// Herlihy-Wing queue: release enqueues, acquire dequeues (Section 3.2).
struct HwQueueOrders {
  MemOrder BackFaa = MemOrder::Release;   ///< Enqueue's slot grab.
  MemOrder SlotStore = MemOrder::Release; ///< Publishing the element.
  MemOrder BackLoad = MemOrder::Acquire;  ///< Dequeue's snapshot of back.
  MemOrder SlotLoad = MemOrder::Acquire;  ///< Dequeue's scan read.
  MemOrder ClaimCas = MemOrder::Acquire;  ///< Claiming the element.
  bool operator==(const HwQueueOrders &) const = default;
};

/// Treiber stack, plain and EBR: release pushes, acquire pops (§3.3).
struct TreiberOrders {
  MemOrder PushHeadLoad = MemOrder::Relaxed; ///< Push's read of head.
  MemOrder PushCas = MemOrder::Release;      ///< Installing the node.
  MemOrder PopHeadLoad = MemOrder::Acquire;  ///< Pop's read of head.
  MemOrder PopCas = MemOrder::Acquire;       ///< Unlinking the node.
  bool operator==(const TreiberOrders &) const = default;
};

/// Exchanger with helping (Section 4.2).
struct ExchangerOrders {
  MemOrder SlotLoad = MemOrder::Acquire;   ///< Reading the offer slot.
  MemOrder InstallCas = MemOrder::Release; ///< Installing an offer.
  MemOrder CancelCas = MemOrder::Relaxed;  ///< Withdrawing an offer.
  MemOrder MatchRead = MemOrder::Acquire;  ///< Offerer reads a filled hole.
  MemOrder HelpCas = MemOrder::AcqRel;     ///< Filling the hole (commit).
  MemOrder ClearCas = MemOrder::Relaxed;   ///< Emptying the slot.
  bool operator==(const ExchangerOrders &) const = default;
};

/// Chase-Lev deque with the C11 orders of Lê et al. [PPoPP'13].
struct WsDequeOrders {
  MemOrder OwnBottomLoad = MemOrder::Relaxed; ///< Owner reads bottom.
  MemOrder BottomStore = MemOrder::Relaxed;   ///< Owner writes bottom.
  MemOrder PushTopLoad = MemOrder::Acquire;   ///< Push's capacity check.
  MemOrder SlotStore = MemOrder::Relaxed;     ///< Push's buffer write.
  MemOrder PushFence = MemOrder::Release;     ///< Publishes the element.
  MemOrder TakeFence = MemOrder::SeqCst;      ///< Orders take's decrement.
  MemOrder TakeTopLoad = MemOrder::Relaxed;   ///< Take's read of top.
  MemOrder SlotLoad = MemOrder::Relaxed;      ///< Buffer reads.
  MemOrder TopCas = MemOrder::SeqCst;         ///< Last-element race, steal.
  MemOrder StealTopLoad = MemOrder::Acquire;
  MemOrder StealFence = MemOrder::SeqCst;
  MemOrder StealBottomLoad = MemOrder::Acquire;
  bool operator==(const WsDequeOrders &) const = default;
};

/// The std::memory_order a table field compiles to on the native tier.
/// Every call is a constant; a NonAtomic field fails to compile.
consteval std::memory_order stdOrder(MemOrder O) {
  if (O == MemOrder::NonAtomic)
    throw "a non-atomic access has no std::memory_order";
  // After NonAtomic, MemOrder lists std's orders minus consume (tested).
  constexpr std::memory_order Std[] = {
      std::memory_order_relaxed, std::memory_order_acquire,
      std::memory_order_release, std::memory_order_acq_rel,
      std::memory_order_seq_cst};
  return Std[static_cast<int>(O) - 1];
}

} // namespace compass::lib

#endif // COMPASS_LIB_ORDERS_H
