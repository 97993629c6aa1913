//===-- native/TreiberStackEbr.h - Treiber stack with EBR -------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Treiber stack with online epoch-based reclamation: unlike
/// TreiberStack.h (whose retire list grows until destruction), popped
/// nodes here are freed as epochs turn over, bounding memory by the
/// number of in-flight operations — the reclamation story the paper's
/// Section 6 points to as future work. Each thread registers once via
/// registerThread() before operating.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_NATIVE_TREIBERSTACKEBR_H
#define COMPASS_NATIVE_TREIBERSTACKEBR_H

#include "lib/Orders.h"
#include "native/Ebr.h"

#include <atomic>
#include <optional>
#include <utility>

namespace compass::native {

/// Lock-free LIFO stack with epoch-based reclamation.
template <typename T> class TreiberStackEbr {
  struct Node : RetireHook {
    Node *Next = nullptr;
    T Value;
    explicit Node(T V) : Value(std::move(V)) {}
  };

public:
  using Domain = EbrDomain<Node>;
  using ThreadHandle = typename Domain::Participant;

  TreiberStackEbr() = default;
  TreiberStackEbr(const TreiberStackEbr &) = delete;
  TreiberStackEbr &operator=(const TreiberStackEbr &) = delete;

  ~TreiberStackEbr() {
    Node *N = Head.load(std::memory_order_relaxed);
    while (N) {
      Node *Next = N->Next;
      delete N;
      N = Next;
    }
  }

  /// Registers the calling thread; keep the handle alive while the thread
  /// uses the stack.
  ThreadHandle registerThread() { return ThreadHandle(Reclaimer); }

  void push(ThreadHandle &H, T V) {
    typename Domain::Guard G(H);
    Node *N = new Node(std::move(V));
    N->Next = Head.load(lib::stdOrder(Ord.PushHeadLoad));
    while (!Head.compare_exchange_weak(N->Next, N, lib::stdOrder(Ord.PushCas),
                                       std::memory_order_relaxed)) {
    }
  }

  std::optional<T> pop(ThreadHandle &H) {
    typename Domain::Guard G(H);
    for (;;) {
      Node *N = Head.load(lib::stdOrder(Ord.PopHeadLoad));
      if (!N)
        return std::nullopt;
      // Safe to dereference: we are pinned, so N cannot be freed even if
      // another thread pops and retires it concurrently.
      if (Head.compare_exchange_weak(N, N->Next, lib::stdOrder(Ord.PopCas),
                                     std::memory_order_relaxed)) {
        T Out = std::move(N->Value);
        Reclaimer.retire(N);
        return Out;
      }
    }
  }

  /// Reclamation statistics (diagnostics).
  uint64_t nodesFreedOnline() const { return Reclaimer.freedApprox(); }
  uint64_t nodesPending() const { return Reclaimer.pendingApprox(); }
  uint64_t epochsTurned() const { return Reclaimer.epoch(); }

private:
  static constexpr lib::TreiberOrders Ord{}; ///< As in lib::TreiberStack.
  std::atomic<Node *> Head{nullptr};
  Domain Reclaimer;
};

} // namespace compass::native

#endif // COMPASS_NATIVE_TREIBERSTACKEBR_H
