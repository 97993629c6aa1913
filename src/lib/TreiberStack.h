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
/// Seeded faults (lib::Mutation): TreiberRelaxedPopHead relaxes pop's head
/// load; TreiberPopBelowTop unlinks the top two nodes and pops the second.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_LIB_TREIBERSTACK_H
#define COMPASS_LIB_TREIBERSTACK_H

#include "lib/Container.h"
#include "spec/SpecMonitor.h"

#include <string>

namespace compass::lib {

class TreiberStack final : public SimStack {
public:
  /// \p Mut seeds one of the stack's faults.
  TreiberStack(rmc::Machine &M, spec::SpecMonitor &Mon, std::string Name,
               Mutation Mut = Mutation::None);

  sim::Task<void> push(sim::Env &E, rmc::Value V) override;
  sim::Task<rmc::Value> pop(sim::Env &E) override;
  sim::Task<bool> tryPush(sim::Env &E, rmc::Value V) override;
  sim::Task<rmc::Value> tryPop(sim::Env &E) override;

  unsigned objId() const override { return Obj; }

private:
  // Node layout: [value (na), ghost push-event id (na), next (na)].
  static constexpr unsigned ValOff = 0;
  static constexpr unsigned EidOff = 1;
  static constexpr unsigned NextOff = 2;

  /// One push attempt against head value \p HeadPtr with prepared node
  /// \p N; true on success (event committed).
  sim::Task<bool> pushAttempt(sim::Env &E, rmc::Value HeadPtr, rmc::Loc N,
                              rmc::Value V);

  /// One pop attempt; returns the value, EmptyVal (committed), or
  /// FailRaceVal (no event). When \p HeadTsOut is non-null, receives the
  /// timestamp of the head message the attempt observed (the stutter
  /// fingerprint for pop's retry loop).
  sim::Task<rmc::Value> popAttempt(sim::Env &E,
                                   rmc::Timestamp *HeadTsOut = nullptr);

  spec::SpecMonitor &Mon;
  unsigned Obj;
  Mutation Mut;
  rmc::Loc HeadLoc;
};

} // namespace compass::lib

#endif // COMPASS_LIB_TREIBERSTACK_H
