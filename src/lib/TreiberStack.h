//===-- lib/TreiberStack.h - Relaxed Treiber stack --------------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Treiber's stack [Treiber '86] on the simulated machine, with the
/// paper's relaxed access modes (Section 3.3): pushes use release CASes
/// and successful pops use acquire CASes, so lhb edges exist only between
/// matching push-pop pairs. The paper verifies it against the strong
/// LAT_hist_hb spec (Figure 4) by constructing a linearization from the
/// modification order of the head pointer; our experiment E4 searches for
/// the same witness on every recorded history.
///
/// Commit points: push = the successful head CAS; pop = the successful
/// head CAS; empty pop = the acquire read of a null head. `tryPush` /
/// `tryPop` are the single-attempt variants the elimination stack builds
/// on (Section 4.1).
///
/// Memory reclamation (the paper's Section 6 future work): a stack built
/// with a reclamation domain (simulated epoch-based reclamation,
/// sim/Ebr.h, mirroring native/TreiberStackEbr.h) runs every operation
/// inside a pinned critical section, and a successful pop retires its
/// unlinked node into the domain, whose grace-period protocol eventually
/// frees it. The commit points, SpecMonitor protocol and node layout do
/// not change, so the same LAT stack spec and sequential reference model
/// apply; what the checker additionally verifies is reclamation safety: no
/// execution may touch a freed node (USE_AFTER_RETIRE) or free one under a
/// pinned reader (PREMATURE_FREE); see rmc::Machine's ghost operations.
///
/// Seeded faults (lib::Mutation): TreiberRelaxedPopHead relaxes pop's head
/// load; TreiberPopBelowTop unlinks the top two nodes and pops the second.
/// With a domain, EbrSkipGracePeriod frees without the announcement scan
/// and EbrEarlyUnpin unpins a pop before it dereferences the node.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_LIB_TREIBERSTACK_H
#define COMPASS_LIB_TREIBERSTACK_H

#include "lib/Container.h"
#include "lib/Orders.h"
#include "sim/Ebr.h"
#include "spec/SpecMonitor.h"

#include <optional>
#include <string>

namespace compass::lib {

class TreiberStack final : public SimStack {
public:
  /// \p Mut seeds one of the stack's faults. A nonzero \p EbrThreads
  /// builds the reclamation domain, with one announcement slot per
  /// simulated thread.
  TreiberStack(rmc::Machine &M, spec::SpecMonitor &Mon, std::string Name,
               Mutation Mut = Mutation::None, unsigned EbrThreads = 0);

  /// TreiberOrders, with PopHeadLoad relaxed under TreiberRelaxedPopHead.
  static TreiberOrders orders(Mutation Mut);

  sim::Task<void> push(sim::Env &E, rmc::Value V) override;
  sim::Task<rmc::Value> pop(sim::Env &E) override;
  sim::Task<bool> tryPush(sim::Env &E, rmc::Value V) override;
  sim::Task<rmc::Value> tryPop(sim::Env &E) override;

  unsigned objId() const override { return Obj; }

  /// The reclamation domain's retire bins (sim::Ebr::bins), the stack's
  /// only state outside the machine that its operations change. Only a
  /// stack with a domain has them.
  const sim::Ebr::RetireBins &bins() const { return Dom->bins(); }
  void setBins(const sim::Ebr::RetireBins &B) { Dom->setBins(B); }

private:
  // Node layout: [value (na), ghost push-event id (na), next (na)].
  static constexpr unsigned ValOff = 0;
  static constexpr unsigned EidOff = 1;
  static constexpr unsigned NextOff = 2;
  static constexpr unsigned NodeCells = 3;

  /// One push attempt against head value \p HeadPtr with prepared node
  /// \p N; true on success (event committed).
  sim::Task<bool> pushAttempt(sim::Env &E, rmc::Value HeadPtr, rmc::Loc N,
                              rmc::Value V);

  /// One pop attempt (caller pinned when there is a domain); returns the
  /// value, EmptyVal (committed), or FailRaceVal (no event). With a
  /// domain, a successful attempt retires the unlinked node before
  /// returning. When \p HeadTsOut is non-null, receives the timestamp of
  /// the head message the attempt observed (the stutter fingerprint for
  /// pop's retry loop).
  sim::Task<rmc::Value> popAttempt(sim::Env &E,
                                   rmc::Timestamp *HeadTsOut = nullptr);

  /// tryPop with a domain: one pop attempt inside a pinned section.
  sim::Task<rmc::Value> pinnedTryPop(sim::Env &E);

  /// True when popAttempt itself unpins, right after reading head (the
  /// EbrEarlyUnpin fault), so it returns unpinned.
  bool earlyUnpin() const { return Dom && Mut == Mutation::EbrEarlyUnpin; }

  spec::SpecMonitor &Mon;
  Mutation Mut;
  TreiberOrders Ord;
  std::optional<sim::Ebr> Dom; ///< The reclamation domain, if any.
  const char *NodeName;        ///< "estk.node" with a domain, else "stk.node".
  unsigned Obj;
  rmc::Loc HeadLoc;
};

} // namespace compass::lib

#endif // COMPASS_LIB_TREIBERSTACK_H
