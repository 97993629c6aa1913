//===-- native/TreiberStack.h - Treiber stack on std::atomic ----*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Treiber's lock-free stack on real C++ atomics with the paper's access
/// modes (Section 3.3): release CAS for push, acquire CAS for pop. Popped
/// nodes are retired (see RetireList.h), so no ABA hazard exists without
/// tagged pointers.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_NATIVE_TREIBERSTACK_H
#define COMPASS_NATIVE_TREIBERSTACK_H

#include "lib/Orders.h"
#include "native/RetireList.h"

#include <atomic>
#include <optional>
#include <utility>

namespace compass::native {

/// Lock-free LIFO stack. T must be movable.
template <typename T> class TreiberStack {
  struct Node : RetireHook {
    Node *Next = nullptr;
    T Value;
    explicit Node(T V) : Value(std::move(V)) {}
  };

public:
  TreiberStack() = default;
  TreiberStack(const TreiberStack &) = delete;
  TreiberStack &operator=(const TreiberStack &) = delete;

  ~TreiberStack() {
    Node *N = Head.load(std::memory_order_relaxed);
    while (N) {
      Node *Next = N->Next;
      delete N;
      N = Next;
    }
  }

  /// Pushes \p V. Lock-free.
  void push(T V) {
    Node *N = new Node(std::move(V));
    N->Next = Head.load(lib::stdOrder(Ord.PushHeadLoad));
    while (!Head.compare_exchange_weak(N->Next, N, lib::stdOrder(Ord.PushCas),
                                       std::memory_order_relaxed)) {
    }
  }

  /// Single push attempt; false on contention (the elimination stack's
  /// try_push', Section 4.1). The node is freed on failure.
  bool tryPush(T V) {
    Node *N = new Node(std::move(V));
    N->Next = Head.load(lib::stdOrder(Ord.PushHeadLoad));
    if (Head.compare_exchange_strong(N->Next, N, lib::stdOrder(Ord.PushCas),
                                     std::memory_order_relaxed))
      return true;
    delete N;
    return false;
  }

  /// Pops the top element, or nullopt if the stack appears empty.
  std::optional<T> pop() {
    for (;;) {
      Node *N = Head.load(lib::stdOrder(Ord.PopHeadLoad));
      if (!N)
        return std::nullopt;
      if (Head.compare_exchange_weak(N, N->Next, lib::stdOrder(Ord.PopCas),
                                     std::memory_order_relaxed)) {
        T Out = std::move(N->Value);
        Retired.retire(N);
        return Out;
      }
    }
  }

  /// Pop outcome for the single-attempt variant.
  enum class TryPopResult { Ok, Empty, Contended };

  /// Single pop attempt (the elimination stack's try_pop').
  TryPopResult tryPop(T &Out) {
    Node *N = Head.load(lib::stdOrder(Ord.PopHeadLoad));
    if (!N)
      return TryPopResult::Empty;
    if (!Head.compare_exchange_strong(N, N->Next, lib::stdOrder(Ord.PopCas),
                                      std::memory_order_relaxed))
      return TryPopResult::Contended;
    Out = std::move(N->Value);
    Retired.retire(N);
    return TryPopResult::Ok;
  }

  bool empty() const {
    return Head.load(lib::stdOrder(Ord.PopHeadLoad)) == nullptr;
  }

private:
  static constexpr lib::TreiberOrders Ord{}; ///< Shared with lib::TreiberStack.
  std::atomic<Node *> Head{nullptr};
  RetireList<Node> Retired;
};

} // namespace compass::native

#endif // COMPASS_NATIVE_TREIBERSTACK_H
