//===-- native/Exchanger.h - Elimination exchanger on std::atomic -*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single-slot exchange channel in the Scherer-Lea-Scott style, matching
/// the simulated twin (lib/Exchanger.h): a thread installs an offer node
/// with a release CAS, a partner *helps* by CASing the offer's hole to its
/// own node — the single instruction that commits both exchanges (the
/// paper's Section 4.2 helping pattern) — and an unmatched offer is
/// withdrawn by CASing the hole to the cancel sentinel. Nodes are retired,
/// never reused, so no ABA arises.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_NATIVE_EXCHANGER_H
#define COMPASS_NATIVE_EXCHANGER_H

#include "lib/Orders.h"
#include "native/RetireList.h"

#include <atomic>
#include <cstddef>
#include <optional>
#include <thread>
#include <utility>

namespace compass::native {

/// Lock-free pairwise exchanger. T must be copyable and default-
/// constructible (for the internal cancel sentinel).
template <typename T> class Exchanger {
  struct Node : RetireHook {
    T Value{};
    /// nullptr = pending; &Cancel = withdrawn; else the partner's node.
    std::atomic<Node *> Hole{nullptr};

    Node() = default;
    explicit Node(T V) : Value(std::move(V)) {}
  };

public:
  Exchanger() = default;
  Exchanger(const Exchanger &) = delete;
  Exchanger &operator=(const Exchanger &) = delete;

  /// Attempts to exchange \p V with a concurrent caller. \p Attempts
  /// bounds install/match rounds; \p Spins bounds the wait for a partner
  /// after installing an offer. Returns the partner's value, or nullopt.
  ///
  /// Every round exposes a *fresh* node (installed as an offer or CASed
  /// into a hole): once another thread may have seen a node it is never
  /// reused, only retired — a cancelled offer's hole stays cancelled.
  std::optional<T> exchange(T V, unsigned Attempts = 1,
                            unsigned Spins = 64) {
    for (unsigned Round = 0; Round != Attempts; ++Round) {
      Node *Off = Slot.load(lib::stdOrder(Ord.SlotLoad));
      if (!Off) {
        Node *Mine = new Node(V);
        Node *Expected = nullptr;
        if (!Slot.compare_exchange_strong(Expected, Mine,
                                          lib::stdOrder(Ord.InstallCas),
                                          std::memory_order_relaxed)) {
          delete Mine; // Never exposed.
          continue;    // Lost the install race; retry the round.
        }

        // Installed: wait briefly for a partner, then withdraw. Yield
        // periodically so a partner gets cycles even on few-core hosts.
        Node *H = nullptr;
        for (unsigned I = 0; I != Spins; ++I) {
          H = Mine->Hole.load(lib::stdOrder(Ord.MatchRead));
          if (H)
            break;
          if ((I & 63) == 63)
            std::this_thread::yield();
        }
        if (!H) {
          Node *ExpHole = nullptr;
          if (Mine->Hole.compare_exchange_strong(
                  ExpHole, &Cancel, lib::stdOrder(Ord.CancelCas),
                  lib::stdOrder(Ord.MatchRead))) {
            clearSlot(Mine);
            Retired.retire(Mine);
            continue; // Withdrawn; next round.
          }
          H = Mine->Hole.load(lib::stdOrder(Ord.MatchRead));
        }
        clearSlot(Mine);
        T Out = H->Value;
        Retired.retire(Mine);
        return Out;
      }

      // Offer present: try to be the helper. The release CAS on the hole
      // is the commit point of *both* exchanges.
      Node *Fill = new Node(V);
      Node *ExpHole = nullptr;
      if (Off->Hole.compare_exchange_strong(ExpHole, Fill,
                                            lib::stdOrder(Ord.HelpCas),
                                            std::memory_order_relaxed)) {
        clearSlot(Off);
        T Out = Off->Value;
        Retired.retire(Fill); // The partner still reads it; freed later.
        return Out;
      }
      delete Fill; // Never exposed.
      // Already matched or withdrawn; help clear the slot and retry.
      clearSlot(Off);
    }
    return std::nullopt;
  }

private:
  /// Empties the slot if it still holds \p N. \p N is taken by value: a
  /// failed CAS stores the slot's current node into its expected argument,
  /// and the callers go on to retire or read the node they passed.
  void clearSlot(Node *N) {
    Slot.compare_exchange_strong(N, nullptr, lib::stdOrder(Ord.ClearCas),
                                 std::memory_order_relaxed);
  }

  static constexpr lib::ExchangerOrders Ord{}; ///< Shared with lib::Exchanger.
  std::atomic<Node *> Slot{nullptr};
  Node Cancel;
  RetireList<Node> Retired;
};

} // namespace compass::native

#endif // COMPASS_NATIVE_EXCHANGER_H
