//===-- lib/MsQueue.h - Michael-Scott queue (release/acquire) ---*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Michael-Scott non-blocking queue [Michael & Scott, PODC'96] on the
/// simulated machine, using only release/acquire atomics — the
/// implementation the paper verifies against the LAT_abs_hb queue spec
/// (Section 3.2: "a purely release-acquire implementation of the
/// Michael-Scott queue satisfies the LAT_abs_hb specs").
///
/// Commit points:
///  * enqueue: the release CAS linking the new node into tail->next;
///  * successful dequeue: the CAS advancing head;
///  * empty dequeue: the acquire read of head->next returning null.
///
/// Nodes carry a ghost field holding the enqueue's event id (the runtime
/// analog of the proof's ghost state), which the dequeuer reads to record
/// the so edge.
///
/// Seeded faults (lib::Mutation): MsQueueRelaxedPublish relaxes the
/// linking CAS; MsQueueSkipDeq unlinks two nodes and returns the second.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_LIB_MSQUEUE_H
#define COMPASS_LIB_MSQUEUE_H

#include "lib/Container.h"
#include "spec/SpecMonitor.h"

#include <string>

namespace compass::lib {

class MsQueue final : public SimQueue {
public:
  /// How the implementation synchronizes; the checkers tell the profiles
  /// apart (experiment E2's ablations).
  enum class SyncProfile {
    /// Release/acquire accesses — the implementation the paper verifies.
    RelAcq,
    /// All-relaxed accesses with explicit release/acquire *fences* at the
    /// same points: equivalent synchronization via the fence rules, so
    /// every spec still holds.
    Fenced,
    /// All-relaxed accesses and no fences: deliberately broken. The
    /// machine's race detector fires on the node payload handoff (the
    /// verification framework catching a real bug).
    BrokenRelaxed
  };

  /// Allocates the queue's cells (head, tail, sentinel node) in \p M and
  /// registers it with \p Mon under \p Name. \p Mut seeds one of the
  /// queue's faults (used with the RelAcq profile).
  MsQueue(rmc::Machine &M, spec::SpecMonitor &Mon, std::string Name,
          SyncProfile Profile = SyncProfile::RelAcq,
          Mutation Mut = Mutation::None);

  sim::Task<void> enqueue(sim::Env &E, rmc::Value V) override;
  sim::Task<rmc::Value> dequeue(sim::Env &E) override;

  /// Dequeues, waiting (fairly) for an element instead of returning empty.
  /// Never commits Deq(ε).
  sim::Task<rmc::Value> dequeueBlocking(sim::Env &E);

  unsigned objId() const override { return Obj; }

private:
  // Node layout: [value (na), ghost enq-event id (na), next (atomic)].
  static constexpr unsigned ValOff = 0;
  static constexpr unsigned EidOff = 1;
  static constexpr unsigned NextOff = 2;

  sim::Task<rmc::Value> dequeueImpl(sim::Env &E, bool Blocking);

  /// The load ordering for pointer chasing under the profile.
  rmc::MemOrder ptrLoadOrder() const;
  /// The ordering of publishing CASes under the profile.
  rmc::MemOrder publishCasOrder() const;
  /// Whether the profile uses explicit fences.
  bool fenced() const { return Profile == SyncProfile::Fenced; }

  spec::SpecMonitor &Mon;
  unsigned Obj;
  SyncProfile Profile;
  Mutation Mut;
  rmc::Loc Head;
  rmc::Loc Tail;
};

} // namespace compass::lib

#endif // COMPASS_LIB_MSQUEUE_H
