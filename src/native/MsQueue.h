//===-- native/MsQueue.h - Michael-Scott queue on std::atomic ---*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Michael-Scott non-blocking MPMC queue [Michael & Scott, PODC'96]
/// on real C++ atomics, with exactly the release/acquire discipline the
/// simulated twin (lib/MsQueue.h) model-checks: enqueue publishes with a
/// release CAS on next, dequeue synchronizes with an acquire load and
/// advances head with acq_rel. Dequeued nodes are retired, not freed
/// (RetireList.h), so the structure is ABA- and UAF-free without tagged
/// pointers.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_NATIVE_MSQUEUE_H
#define COMPASS_NATIVE_MSQUEUE_H

#include "lib/Orders.h"
#include "native/RetireList.h"

#include <atomic>
#include <optional>
#include <utility>

namespace compass::native {

/// Lock-free MPMC FIFO queue. T must be movable.
template <typename T> class MsQueue {
  struct Node : RetireHook {
    std::atomic<Node *> Next{nullptr};
    T Value{};

    Node() = default;
    explicit Node(T V) : Value(std::move(V)) {}
  };

public:
  MsQueue() {
    Node *Sentinel = new Node();
    Head.store(Sentinel, std::memory_order_relaxed);
    Tail.store(Sentinel, std::memory_order_relaxed);
  }

  MsQueue(const MsQueue &) = delete;
  MsQueue &operator=(const MsQueue &) = delete;

  ~MsQueue() {
    // Free the remaining list (sentinel included), then the retired nodes.
    Node *N = Head.load(std::memory_order_relaxed);
    while (N) {
      Node *Next = N->Next.load(std::memory_order_relaxed);
      delete N;
      N = Next;
    }
  }

  /// Enqueues \p V at the tail. Lock-free.
  void enqueue(T V) {
    Node *N = new Node(std::move(V));
    for (;;) {
      Node *Last = Tail.load(lib::stdOrder(Ord.TailLoad));
      Node *Next = Last->Next.load(lib::stdOrder(Ord.NextLoad));
      if (Next) {
        // Tail lags; help advance it.
        Tail.compare_exchange_weak(Last, Next, lib::stdOrder(Ord.TailCas),
                                   std::memory_order_relaxed);
        continue;
      }
      Node *Expected = nullptr;
      if (Last->Next.compare_exchange_weak(Expected, N,
                                           lib::stdOrder(Ord.LinkCas),
                                           std::memory_order_relaxed)) {
        Tail.compare_exchange_strong(Last, N, lib::stdOrder(Ord.TailCas),
                                     std::memory_order_relaxed);
        return;
      }
    }
  }

  /// Dequeues the head element, or nullopt if the queue appears empty.
  std::optional<T> dequeue() {
    for (;;) {
      Node *First = Head.load(lib::stdOrder(Ord.HeadLoad));
      Node *Next = First->Next.load(lib::stdOrder(Ord.NextLoad));
      if (!Next)
        return std::nullopt;
      if (Head.compare_exchange_weak(First, Next, lib::stdOrder(Ord.HeadCas),
                                     std::memory_order_relaxed)) {
        T Out = std::move(Next->Value);
        Retired.retire(First);
        return Out;
      }
    }
  }

  /// True if the queue appears empty to this thread.
  bool empty() const {
    Node *First = Head.load(lib::stdOrder(Ord.HeadLoad));
    return First->Next.load(lib::stdOrder(Ord.NextLoad)) == nullptr;
  }

private:
  static constexpr lib::MsQueueOrders Ord{}; ///< Shared with lib::MsQueue.
  std::atomic<Node *> Head;
  std::atomic<Node *> Tail;
  RetireList<Node> Retired;
};

} // namespace compass::native

#endif // COMPASS_NATIVE_MSQUEUE_H
