//===-- native/WsDeque.h - Chase-Lev deque on std::atomic -------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Chase-Lev work-stealing deque with the C11 orderings of Lê, Pop,
/// Cohen & Zappa Nardelli [PPoPP'13] — the paper's Section 6 future-work
/// library, mirrored from the verified simulated twin (lib/WsDeque.h).
/// One owner pushes/takes at the bottom; thieves steal from the top. The
/// buffer is a fixed-capacity ring (no growth): push fails when the ring
/// is full, which the owner handles by draining.
///
/// T must be trivially copyable (elements live in std::atomic slots).
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_NATIVE_WSDEQUE_H
#define COMPASS_NATIVE_WSDEQUE_H

#include "lib/Orders.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

namespace compass::native {

template <typename T> class WsDeque {
  static_assert(std::is_trivially_copyable_v<T>,
                "elements live in atomic slots");

public:
  explicit WsDeque(size_t Capacity) : Buf(Capacity) {
    assert(Capacity > 0);
  }

  WsDeque(const WsDeque &) = delete;
  WsDeque &operator=(const WsDeque &) = delete;

  /// Owner: pushes \p V at the bottom; false if the ring is full.
  bool push(T V) {
    int64_t B = Bottom.load(lib::stdOrder(Ord.OwnBottomLoad));
    int64_t Tp = Top.load(lib::stdOrder(Ord.PushTopLoad));
    if (B - Tp >= static_cast<int64_t>(Buf.size()))
      return false;
    Buf[static_cast<size_t>(B) % Buf.size()].store(
        V, lib::stdOrder(Ord.SlotStore));
    std::atomic_thread_fence(lib::stdOrder(Ord.PushFence));
    Bottom.store(B + 1, lib::stdOrder(Ord.BottomStore));
    return true;
  }

  /// Owner: takes from the bottom; nullopt when empty.
  std::optional<T> take() {
    int64_t B = Bottom.load(lib::stdOrder(Ord.OwnBottomLoad)) - 1;
    Bottom.store(B, lib::stdOrder(Ord.BottomStore));
    std::atomic_thread_fence(lib::stdOrder(Ord.TakeFence));
    int64_t Tp = Top.load(lib::stdOrder(Ord.TakeTopLoad));
    if (Tp > B) {
      Bottom.store(B + 1, lib::stdOrder(Ord.BottomStore));
      return std::nullopt;
    }
    T V = Buf[static_cast<size_t>(B) % Buf.size()].load(
        lib::stdOrder(Ord.SlotLoad));
    if (Tp != B)
      return V; // More than one element: the bottom is owner-exclusive.
    // Last element: race thieves with an SC CAS.
    bool Won = Top.compare_exchange_strong(Tp, Tp + 1,
                                           lib::stdOrder(Ord.TopCas),
                                           std::memory_order_relaxed);
    Bottom.store(B + 1, lib::stdOrder(Ord.BottomStore));
    if (!Won)
      return std::nullopt;
    return V;
  }

  /// Outcome of a steal attempt.
  enum class StealResult { Ok, Empty, Lost };

  /// Thief: steals from the top.
  StealResult steal(T &Out) {
    int64_t Tp = Top.load(lib::stdOrder(Ord.StealTopLoad));
    std::atomic_thread_fence(lib::stdOrder(Ord.StealFence));
    int64_t B = Bottom.load(lib::stdOrder(Ord.StealBottomLoad));
    if (Tp >= B)
      return StealResult::Empty;
    Out = Buf[static_cast<size_t>(Tp) % Buf.size()].load(
        lib::stdOrder(Ord.SlotLoad));
    if (!Top.compare_exchange_strong(Tp, Tp + 1, lib::stdOrder(Ord.TopCas),
                                     std::memory_order_relaxed))
      return StealResult::Lost;
    return StealResult::Ok;
  }

private:
  static constexpr lib::WsDequeOrders Ord{}; ///< Shared with lib::WsDeque.
  std::atomic<int64_t> Top{0};
  std::atomic<int64_t> Bottom{0};
  std::vector<std::atomic<T>> Buf;
};

} // namespace compass::native

#endif // COMPASS_NATIVE_WSDEQUE_H
