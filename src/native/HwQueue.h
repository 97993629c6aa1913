//===-- native/HwQueue.h - Herlihy-Wing queue on std::atomic ----*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The (relaxed) Herlihy-Wing array queue on real C++ atomics, mirroring
/// the simulated twin (lib/HwQueue.h): a release fetch-add claims a slot,
/// a release store publishes the element, dequeues acquire-scan and claim
/// with an acquire CAS. The capacity bounds the queue's *lifetime* enqueue
/// count — the faithful array formulation of the original algorithm.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_NATIVE_HWQUEUE_H
#define COMPASS_NATIVE_HWQUEUE_H

#include "lib/Orders.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <optional>
#include <vector>

namespace compass::native {

/// Bounded-lifetime MPMC FIFO queue of pointers/integers. T must be a
/// trivially copyable type with two reserved representations (Empty and
/// Taken below); the default instantiation uses uint64_t with 0 and ~0.
template <typename T = uint64_t, T EmptyVal = T(0), T TakenVal = T(~0ull)>
class HwQueue {
public:
  explicit HwQueue(size_t Capacity) : Slots(Capacity) {
    for (auto &S : Slots)
      S.store(EmptyVal, std::memory_order_relaxed);
  }

  HwQueue(const HwQueue &) = delete;
  HwQueue &operator=(const HwQueue &) = delete;

  /// Enqueues \p V (must differ from the Empty/Taken sentinels). Fatal if
  /// the lifetime capacity is exhausted.
  void enqueue(T V) {
    assert(V != EmptyVal && V != TakenVal && "value collides with sentinel");
    size_t I = Back.fetch_add(1, lib::stdOrder(Ord.BackFaa));
    assert(I < Slots.size() && "HwQueue lifetime capacity exceeded");
    Slots[I].store(V, lib::stdOrder(Ord.SlotStore));
  }

  /// Dequeues, or returns nullopt after one fruitless scan.
  std::optional<T> dequeue() {
    size_t N = Back.load(lib::stdOrder(Ord.BackLoad));
    if (N > Slots.size())
      N = Slots.size();
    for (size_t I = 0; I != N; ++I) {
      T V = Slots[I].load(lib::stdOrder(Ord.SlotLoad));
      if (V == EmptyVal || V == TakenVal)
        continue;
      if (Slots[I].compare_exchange_strong(V, TakenVal,
                                           lib::stdOrder(Ord.ClaimCas),
                                           std::memory_order_relaxed))
        return V;
    }
    return std::nullopt;
  }

private:
  static constexpr lib::HwQueueOrders Ord{}; ///< Shared with lib::HwQueue.
  std::atomic<size_t> Back{0};
  std::vector<std::atomic<T>> Slots;
};

} // namespace compass::native

#endif // COMPASS_NATIVE_HWQUEUE_H
