//===-- sim/Ebr.h - Simulated epoch-based reclamation -----------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Epoch-based reclamation on the simulated machine, mirroring the native
/// domain (native/Ebr.h, Fraser '04's three-epoch scheme) so reclamation
/// protocols can be model-checked instead of only stress-tested: readers
/// pin the domain (announcing the global epoch, SC so the advance scan
/// cannot miss an announcement), writers retire unlinked cells into the
/// current epoch's bin, and the epoch advances when every pinned reader
/// announces the current epoch — at which point the bin the *new* epoch
/// retires into holds only cells two full grace periods old, and they are
/// freed through rmc::Machine::freeCells.
///
/// The ghost side (rmc::Machine::pinEnter/pinExit/retire/freeCells) turns
/// protocol violations into machine faults: a free while a retire-time
/// reader is still pinned is PREMATURE_FREE; any later access to a freed
/// cell is USE_AFTER_RETIRE. Pristine runs are fault-free (DESIGN.md
/// Section 10 gives the argument); the SkipGracePeriod option disables the
/// announcement scan for mutation testing.
///
/// Deviations from native/Ebr.h, chosen to keep exploration tractable and
/// the sleep-set reduction sound:
///  * retire() does not opportunistically advance (a pinned retirer would
///    only ever observe itself blocking the scan); unpin() drains instead,
///    running up to three advance rounds when retired cells are pending;
///  * the retire-bin bookkeeping is ghost state mutated only on Reclaim
///    ghost steps and — for the bin claim — atomically on the successful
///    epoch-advance CAS, pairings rmc::independent declares dependent.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_EBR_H
#define COMPASS_SIM_EBR_H

#include "sim/Scheduler.h"

#include <array>
#include <string>

namespace compass::sim {

/// A simulated EBR domain; see file comment. One instance per container
/// per execution (allocation state is per-execution, like the container's).
class Ebr {
public:
  struct Options {
    /// Mutation hook: advance without scanning announcements, breaking the
    /// grace period. Pristine code never sets this.
    bool SkipGracePeriod;
    // Out-of-line defaults (not member initializers): GCC rejects a nested
    // class with default member initializers as a default argument below.
    Options() : SkipGracePeriod(false) {}
    explicit Options(bool Skip) : SkipGracePeriod(Skip) {}
  };

  /// Allocates the epoch cell and one announcement slot per thread.
  Ebr(rmc::Machine &M, const std::string &Name, unsigned NumThreads,
      Options O = Options());

  /// Pins the calling thread: announce the global epoch (SC), fence (SC,
  /// pairing with the advance scan), and enter the ghost critical section.
  Task<void> pin(Env &E);

  /// Unpins the calling thread and, when retired cells are pending, runs
  /// up to three epoch-advance rounds to drain them.
  Task<void> unpin(Env &E);

  /// Retires cells [L, L+Count) (already unlinked; caller pinned) into the
  /// current epoch's bin.
  Task<void> retire(Env &E, rmc::Loc L, unsigned Count);

  /// A retired allocation awaiting its grace period.
  struct Batch {
    rmc::Loc L = 0;
    unsigned Count = 0;
  };

  /// One ghost retire bin: up to MaxBatches allocations, inline (a domain
  /// rebuilt every execution allocates no bins, and a coroutine local
  /// copy owns no heap memory, as sim/Task.h requires). A retire past
  /// MaxBatches is fatal; size the workload.
  struct Bin {
    static constexpr unsigned MaxBatches = 8;
    Batch Items[MaxBatches];
    unsigned Len = 0;

    const Batch *begin() const { return Items; }
    const Batch *end() const { return Items + Len; }
  };

  /// The ghost retire bins, indexed by epoch % 3: the domain's only state
  /// outside the machine that its operations change, which copy-on-write
  /// bodies save and restore (Workload::Body::CowSave). Mutated only on
  /// Reclaim/SC steps.
  using RetireBins = std::array<Bin, 3>;
  const RetireBins &bins() const { return Bins; }
  void setBins(const RetireBins &B) { Bins = B; }

private:

  /// One advance attempt: scan announcements (unless SkipGracePeriod),
  /// CAS the epoch forward, and free the bin the new epoch retires into.
  /// Returns false when blocked by a pinned reader or a lost CAS.
  Task<bool> advanceOnce(Env &E);

  unsigned NumThreads;
  Options Opts;
  rmc::Loc EpochLoc; ///< Global epoch counter (starts at 0).
  rmc::Loc SlotLoc;  ///< NumThreads announcement slots: 0 = unpinned,
                     ///< else announced epoch + 1.
  RetireBins Bins;
};

} // namespace compass::sim

#endif // COMPASS_SIM_EBR_H
