//===-- lib/Exchanger.h - Elimination exchanger with helping ----*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A slot exchanger in the style of Scherer-Lea-Scott's exchange channel,
/// the library for which the paper gives the first RMC exchanger spec
/// (Section 4.2). A thread either installs an *offer* (value + pending
/// hole) with a release CAS on the slot, or — finding an offer — *helps*:
/// it claims the hole with a CAS, which is the commit point of *both*
/// exchanges. The helper commits the helpee's event and then its own,
/// atomically (adjacent commit indices, symmetric so edges), realizing
/// Figure 5's helping pattern. An installed offer that finds no partner is
/// cancelled by CASing the hole, and the exchange fails with ⊥.
///
/// Exchanged values must be distinct from HolePending/HoleCancel and ⊥.
///
/// Seeded fault (lib::Mutation): ExchangerEchoValue hands a matched caller
/// back its own value.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_LIB_EXCHANGER_H
#define COMPASS_LIB_EXCHANGER_H

#include "lib/Container.h"
#include "spec/SpecMonitor.h"

#include <string>

namespace compass::lib {

class Exchanger {
public:
  /// \p Mut seeds the exchanger's fault.
  Exchanger(rmc::Machine &M, spec::SpecMonitor &Mon, std::string Name,
            Mutation Mut = Mutation::None);

  /// Attempts to exchange \p V (which must not be ⊥) with another thread.
  /// Returns the partner's value on success, graph::BottomVal on failure.
  /// \p Attempts bounds the install/match rounds before giving up; model-
  /// checked workloads keep it small.
  sim::Task<rmc::Value> exchange(sim::Env &E, rmc::Value V,
                                 unsigned Attempts = 1);

  unsigned objId() const { return Obj; }

private:
  // Offer layout: [value (na), offering thread id (na), hole (atomic)].
  static constexpr unsigned ValOff = 0;
  static constexpr unsigned TidOff = 1;
  static constexpr unsigned HoleOff = 2;

  /// Hole states: 0 = pending; HoleCancel = offer withdrawn; any other
  /// value = the partner's exchanged value.
  static constexpr rmc::Value HoleCancel = graph::BottomVal;

  /// What a matched exchange returns: the partner's value, or under
  /// ExchangerEchoValue the caller's own (the graph still records the true
  /// crossing, so only the observed-result check can see it).
  rmc::Value matched(rmc::Value Own, rmc::Value Partner) const {
    return Mut == Mutation::ExchangerEchoValue ? Own : Partner;
  }

  spec::SpecMonitor &Mon;
  unsigned Obj;
  rmc::Loc Slot; ///< 0 = no offer, else the offer's location.
  Mutation Mut;
};

} // namespace compass::lib

#endif // COMPASS_LIB_EXCHANGER_H
