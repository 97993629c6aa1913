//===-- lib/TreiberStackEbr.h - Treiber stack with simulated EBR -*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Treiber stack of TreiberStack.h augmented with simulated
/// epoch-based reclamation (sim/Ebr.h), mirroring native/TreiberStackEbr.h:
/// every operation runs inside a pinned critical section, and a successful
/// pop retires its unlinked node into the EBR domain, whose grace-period
/// protocol eventually frees it. The commit points, SpecMonitor protocol,
/// and node layout are identical to the plain stack, so the same LAT stack
/// spec and sequential reference model apply unchanged — what the checker
/// additionally verifies is reclamation safety: no execution may touch a
/// freed node (USE_AFTER_RETIRE) or free one under a pinned reader
/// (PREMATURE_FREE); see rmc::Machine's ghost operations.
///
/// Seeded faults (lib::Mutation): EbrSkipGracePeriod frees without the
/// announcement scan; EbrEarlyUnpin unpins a pop before it dereferences
/// the node.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_LIB_TREIBERSTACKEBR_H
#define COMPASS_LIB_TREIBERSTACKEBR_H

#include "lib/Container.h"
#include "sim/Ebr.h"
#include "spec/SpecMonitor.h"

#include <string>

namespace compass::lib {

class TreiberStackEbr final : public SimStack {
public:
  /// \p NumThreads sizes the EBR domain's announcement-slot array (one
  /// slot per simulated thread). \p Mut seeds one of the stack's
  /// reclamation faults.
  TreiberStackEbr(rmc::Machine &M, spec::SpecMonitor &Mon, std::string Name,
                  unsigned NumThreads, Mutation Mut = Mutation::None);

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
  static constexpr unsigned NodeCells = 3;

  sim::Task<bool> pushAttempt(sim::Env &E, rmc::Value HeadPtr, rmc::Loc N,
                              rmc::Value V);

  /// One pop attempt (caller pinned); on success the unlinked node is
  /// retired before returning. Under EbrEarlyUnpin the attempt unpins
  /// right after reading head, so it returns unpinned.
  sim::Task<rmc::Value> popAttempt(sim::Env &E,
                                   rmc::Timestamp *HeadTsOut = nullptr);

  spec::SpecMonitor &Mon;
  unsigned Obj;
  rmc::Loc HeadLoc;
  Mutation Mut;
  sim::Ebr Dom;
};

} // namespace compass::lib

#endif // COMPASS_LIB_TREIBERSTACKEBR_H
