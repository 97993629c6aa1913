//===-- rmc/Machine.h - Operational RC11 view machine -----------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operational, view-based memory machine for the ORC11 fragment
/// (Section 2.3 of the paper): per-thread views with current / acquire /
/// per-location-release / fence-release components, per-location write
/// histories, and the release/acquire view-transfer rules REL-WRITE and
/// ACQ-READ. Load buffering is impossible by construction (reads never
/// observe program-order-later writes; there are no promises), matching
/// ORC11's `po ∪ rf` acyclicity requirement.
///
/// Every nondeterministic step (which readable message a load reads, CAS
/// success vs. failure alternatives) is resolved through a ChoiceSource,
/// which the model checker implements to enumerate all executions.
///
/// Deviations from the full model, documented in DESIGN.md Section 4:
///  * writes append at the end of modification order (no in-middle
///    insertion), and RMWs read the mo-maximal message;
///  * SC accesses are approximated by rel/acq accesses joined with a global
///    SC view (sound for the safety properties we check);
///  * non-atomic race detection requires the accessor to have observed the
///    whole history of the cell — the complementary read/write race
///    direction is caught in a sibling interleaving by exhaustive
///    exploration.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_RMC_MACHINE_H
#define COMPASS_RMC_MACHINE_H

#include "rmc/Footprint.h"
#include "rmc/Knowledge.h"
#include "rmc/MemOrder.h"
#include "rmc/Memory.h"
#include "support/Choice.h"
#include "support/SmallVec.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <new>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace compass::rmc {

/// Predicate over message values, for conditional (spin-wait) loads.
///
/// A flattened, trivially-copyable small-buffer functor instead of
/// std::function: the scheduler evaluates wait predicates for every
/// blocked thread on every step, so the double indirection and potential
/// heap state of std::function were measurable on the stepping hot path.
/// Captures must be trivially copyable and fit the inline buffer (spin
/// predicates capture at most a couple of word-sized values).
class ValuePred {
  using Invoke = bool (*)(const void *, Value);
  alignas(8) unsigned char Buf[24];
  Invoke Call = nullptr;

public:
  ValuePred() = default;
  ValuePred(std::nullptr_t) {}
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, ValuePred>>>
  ValuePred(F Fn) {
    static_assert(sizeof(F) <= sizeof(Buf),
                  "spin predicate captures too much state");
    static_assert(std::is_trivially_copyable_v<F>,
                  "spin predicate captures must be trivially copyable");
    new (Buf) F(Fn);
    Call = [](const void *B, Value V) {
      return (*static_cast<const F *>(B))(V);
    };
  }
  ValuePred &operator=(std::nullptr_t) {
    Call = nullptr;
    return *this;
  }
  explicit operator bool() const { return Call != nullptr; }
  bool operator()(Value V) const { return Call(Buf, V); }
};

/// The view-based operational machine.
class Machine {
public:
  /// Result of a compare-and-swap.
  struct CasResult {
    bool Success = false;
    Value Old = 0; ///< The value read (== expected iff Success).
  };

  explicit Machine(ChoiceSource &Choices) : Choices(Choices) {}

  /// Registers a new thread; returns its id. Thread ids are dense from 0.
  unsigned addThread();

  unsigned numThreads() const {
    return static_cast<unsigned>(LiveThreads);
  }

  /// Rewinds the machine to its freshly constructed logical state while
  /// retaining all heap storage (memory cells, thread view vectors, release
  /// maps, scratch buffers). A Machine reused across the explorer's replays
  /// reaches steady-state capacity once and stops allocating. The operation
  /// sequence number is monotonic across resets.
  void reset();

  /// The footprint of the most recently executed operation (load / store /
  /// RMW / fence), for the partial-order-reduction layer. Kind::None until
  /// the first operation after construction/reset.
  const Footprint &lastFootprint() const { return LastFp; }

  /// Monotonic count of executed operations (never reset). A caller that
  /// snapshots opSeq() around a step can tell whether the step performed a
  /// machine operation at all, and hence whether lastFootprint() is fresh.
  uint64_t opSeq() const { return OpSeqN; }

  /// Allocates \p Count cells initialized to \p Init; see Memory::alloc.
  Loc alloc(std::string_view Name, unsigned Count = 1, Value Init = 0) {
    return Mem.alloc(Name, Count, Init);
  }

  /// Loads from \p L with order \p O (NonAtomic / Relaxed / Acquire /
  /// SeqCst), choosing among readable messages.
  Value load(unsigned T, Loc L, MemOrder O);

  /// Loads from \p L, restricted to readable messages whose value satisfies
  /// \p Pred. The caller must ensure one exists (see anyReadableSatisfies);
  /// used to model fair spin-waits.
  Value loadWhere(unsigned T, Loc L, MemOrder O, const ValuePred &Pred);

  /// True if thread \p T could currently read a message of \p L whose value
  /// satisfies \p Pred, scanning from readFloor(T, L, Sc) — pass \p Sc for
  /// a seq_cst wait. Does not modify any state.
  bool anyReadableSatisfies(unsigned T, Loc L, bool Sc,
                            const ValuePred &Pred) const;

  /// The oldest timestamp of \p L that thread \p T may read: its cur
  /// view's, raised to the SC view's for an SC access (\p Sc).
  Timestamp readFloor(unsigned T, Loc L, bool Sc) const {
    return readFloor(thread(T), L, Sc);
  }

  /// Stores \p V to \p L with order \p O (NonAtomic / Relaxed / Release /
  /// SeqCst).
  void store(unsigned T, Loc L, Value V, MemOrder O);

  /// Atomic compare-and-swap: succeeds only against the mo-maximal message.
  /// \p SuccO applies read+write sides on success; \p FailO the read side
  /// on failure.
  CasResult cas(unsigned T, Loc L, Value Expected, Value Desired,
                MemOrder SuccO, MemOrder FailO = MemOrder::Relaxed);

  /// Atomic fetch-and-add; returns the old value.
  Value fetchAdd(unsigned T, Loc L, Value Add, MemOrder O);

  /// Memory fence with order Acquire / Release / AcqRel / SeqCst.
  void fence(unsigned T, MemOrder O);

  /// Reclamation ghost operations (simulated EBR, DESIGN.md Section 10).
  /// These are scheduler-visible steps of their own (Footprint::Kind
  /// Reclaim / Free) but touch only the reclamation ghost state — pin
  /// sessions and cell lifecycles — never cell histories or views.

  /// Enters a pinned (epoch-protected) critical section for thread \p T,
  /// starting a fresh pin session. Fatal if already pinned.
  void pinEnter(unsigned T);

  /// Leaves the pinned critical section. Fatal if not pinned.
  void pinExit(unsigned T);

  /// Whether thread \p T is currently inside a pinned critical section.
  bool pinned(unsigned T) const { return thread(T).Pinned; }

  /// Retires cells [L, L+Count): marks them Retired and snapshots every
  /// currently pinned (thread, session) pair — the readers whose critical
  /// sections must end before the cells may be freed.
  void retire(unsigned T, Loc L, unsigned Count = 1);

  /// Frees retired cells [L, L+Count). Reports a PREMATURE_FREE fault if
  /// any reader pinned at retire time is still in the same pin session;
  /// marks the cells Freed so later accesses fault as USE_AFTER_RETIRE.
  void freeCells(unsigned T, Loc L, unsigned Count = 1);

  /// The thread's current knowledge; the spec monitor reads it to snapshot
  /// physical/logical views at commit points and extends its logical half
  /// with freshly committed event ids.
  Knowledge &threadCur(unsigned T);
  const Knowledge &threadCur(unsigned T) const;

  /// The thread's acquire knowledge (joined by relaxed reads, folded into
  /// cur by acquire fences). Exposed for the spec monitor's event-id
  /// bookkeeping.
  Knowledge &threadAcq(unsigned T);

  /// Timestamp of the thread's most recent atomic read (load, conditional
  /// load or RMW; a non-atomic load does not count). Retry loops use it as
  /// a stutter fingerprint: re-reading the same *message* (not merely the
  /// same value) is a no-progress iteration. Fatal if the thread never
  /// read.
  Timestamp lastReadTs(unsigned T) const;

  const Memory &memory() const { return Mem; }

  /// True once a machine-level fault has been detected — a data race on a
  /// non-atomic access, a use-after-retire, or a premature free; the
  /// scheduler aborts the execution and reports \p raceMessage. (The name
  /// predates the reclamation faults; all faults surface through it.)
  bool raceDetected() const { return Raced; }
  const std::string &raceMessage() const { return RaceMsg; }

  /// Structured verdict rule for the detected fault: "RACE",
  /// "USE_AFTER_RETIRE", or "PREMATURE_FREE". Meaningful only when
  /// raceDetected().
  const char *faultRule() const { return FaultRule; }

  /// When enabled, every memory operation appends a human-readable line to
  /// trace(); used to print counterexample executions.
  void enableTrace(bool On) { Tracing = On; }
  const std::vector<std::string> &trace() const { return Trace; }

  //===--------------------------------------------------------------------===//
  // Copy-on-write execution support (DESIGN.md Section 11). The engine
  // snapshots the machine at decision boundaries and restores it on
  // backtrack, together with the scheduler's records and the coroutine
  // frames; no machine operation of the shared prefix runs again.
  //
  // An operation changes no view before its choice: load, loadWhere and
  // cas read their lower bound through the SC view and join it after
  // choosing. A snapshot taken at any choice is therefore the loop-top
  // state of the step that makes it.
  //===--------------------------------------------------------------------===//

  /// A snapshot of the machine at a step boundary: a level on the
  /// machine's snapshot stack plus the memory's O(1) epoch (undo-log
  /// marks). The machine keeps the thread and SC-view copies itself, one
  /// stack each, and copies a thread only at a level where it had changed
  /// since the previous save or restore (see saveSnapshot).
  struct Snap {
    unsigned Level = 0;
    size_t LiveThreads = 0;
    Memory::Epoch MemEpoch;
  };

  /// Captures the machine into \p S at stack level \p Level: the
  /// copy-on-write engine's slot index, one above the previous live
  /// snapshot on the DFS path (copies at \p Level or above belong to
  /// snapshots the engine has dropped and are discarded). Copies only the
  /// threads, and the SC view, modified since the previous save or
  /// restore. Taken at a choice, it is the loop-top state of the step
  /// making the choice (see the section comment).
  void saveSnapshot(Snap &S, unsigned Level);

  /// Rewinds the machine to \p S, a live snapshot: trims memory to its
  /// epoch, drops the copies of deeper levels, copies back only the
  /// threads (and the SC view) modified since \p S was taken, and clears
  /// the fault flags — a snapshot is only ever taken at a boundary the
  /// execution passed, where no fault was pending.
  void restoreSnapshot(const Snap &S);

  /// Threads (and the SC view, counted as one more) copied by the last
  /// saveSnapshot or restoreSnapshot call.
  unsigned lastSnapshotCopies() const { return LastCopies; }

  /// A hash of every live thread's views, release map, last read and pin
  /// state, and of the SC view, over the allocated locations. Equal states
  /// give equal digests; tests compare execution paths by it.
  uint64_t stateDigest() const;

  /// Live history length of \p L: the reads-from watermark the source-set
  /// reduction stamps on a sleeping move of \p L (sim/Reduction.h).
  size_t historyLen(Loc L) const { return Mem.cell(L).Len; }

  //===--------------------------------------------------------------------===//
  // Source-set reduction support (sim/Reduction.h). Both hooks are driven
  // by the scheduler; with no reduction attached they are never touched.
  //===--------------------------------------------------------------------===//

  /// Installs a reads-from floor for the next operation on \p L: its
  /// reads-from choice set is restricted to messages with timestamp
  /// >= \p Floor — the ones appended after the restricted move went to
  /// sleep (older choices commute back to the already-explored sibling).
  /// Because every choice set is enumerated newest-first, the restricted
  /// set is a *prefix* of the unrestricted one: the recorded decision
  /// index denotes the same message either way, so corpus traces recorded
  /// from restricted executions replay reduction-free. Consumed by the
  /// first load / loadWhere / cas / fetchAdd on \p L.
  void setRfFloor(Loc L, uint32_t Floor) {
    RfFloorLoc = L;
    RfFloorTs = Floor;
    RfFloorOn = true;
    RfFloorEmpty = false;
  }

  /// Clears any pending floor; returns whether a restricted choice set
  /// came up empty (only possible for a predicated loadWhere — the step
  /// then read an already-covered message and the scheduler abandons the
  /// execution as RfPruned, with no choice node recorded).
  bool clearRfFloor() {
    RfFloorOn = false;
    const bool E = RfFloorEmpty;
    RfFloorEmpty = false;
    return E;
  }

private:
  /// One entry of a thread's per-location release map. The map is a flat
  /// vector with a live watermark: threads release through a handful of
  /// locations, so a linear scan beats hashing, and retained entries past
  /// the watermark keep their Knowledge capacity across executions.
  struct RelEntry {
    Loc L = 0;
    Knowledge K;
  };

  /// Per-thread view state (cur / acq / rel, Section 2.3 and the promising
  /// semantics it references).
  struct ThreadState {
    Knowledge Cur;      ///< Everything po-or-sync before now.
    Knowledge Acq;      ///< Additionally, relaxed-read acquisitions.
    Knowledge RelFence; ///< Released by the last release fence.
    std::vector<RelEntry> Rel; ///< Per-loc release views; [0, RelLive) live.
    size_t RelLive = 0;
    bool HasRead = false; ///< Whether LastReadTs is valid.
    Timestamp LastReadTs = 0;
    bool Pinned = false;     ///< Inside an EBR-pinned critical section.
    uint64_t PinSession = 0; ///< Per-execution pin-session counter.

    const Knowledge *findRel(Loc L) const {
      for (size_t I = 0; I != RelLive; ++I)
        if (Rel[I].L == L)
          return &Rel[I].K;
      return nullptr;
    }

    /// The release-view slot for \p L, created (or recycled) if absent.
    Knowledge &relSlot(Loc L);

    /// Empties the state while keeping all backing storage.
    void clear();

    /// Copies \p O's live state into this one, reusing storage (release
    /// entries past O's watermark are not copied).
    void copyFrom(const ThreadState &O);
  };

  /// Copies of one thread's state, or of the SC view, taken at the
  /// snapshot levels of the DFS path where it had changed, deepest last:
  /// [0, Live) are live, the rest retained storage. Its value at a live
  /// snapshot is the last copy at or below that snapshot's level.
  template <typename T> struct CopyStack {
    struct Entry {
      unsigned Level = 0;
      T Copy;
    };
    std::vector<Entry> Entries;
    size_t Live = 0;
    bool Changed = true; ///< Modified since the last save or restore.

    /// Drops copies at \p Level or above, then copies \p Now at
    /// \p Level if it changed; returns whether it copied.
    bool save(unsigned Level, const T &Now);
    /// Drops copies above \p Level and copies the last one left back into
    /// \p Now if \p Now changed since it; returns whether it copied.
    bool restore(unsigned Level, T &Now);
  };

  /// Thread \p T's state. The mutable access marks the thread changed for
  /// the next snapshot, so an operation that chooses takes it only after
  /// its choice: a snapshot taken at the choice must be the last save
  /// before the operation's changes, not after them.
  ThreadState &thread(unsigned T);
  const ThreadState &thread(unsigned T) const;

  /// The oldest timestamp of \p L that thread state \p TS may read: its
  /// cur view's, raised to the SC view's for an SC access.
  Timestamp readFloor(const ThreadState &TS, Loc L, bool Sc) const {
    const Timestamp From = TS.Cur.Phys.get(L);
    return Sc ? std::max(From, ScPhys.get(L)) : From;
  }

  /// The SC view, for an operation about to change it.
  View &scMut() {
    ScSaved.Changed = true;
    return ScPhys;
  }

  /// Applies the read-side view effects of reading the message at \p Ts
  /// from cell \p C (location \p L), after the choice; an SC access
  /// (\p Sc) first joins the SC view into the physical cur and acq views.
  void applyRead(ThreadState &TS, Loc L, const Cell &C, Timestamp Ts,
                 MemOrder O, bool Sc);

  /// The view a relaxed write to \p L releases (rel(l) ⊔ fence-release).
  /// Returns a reference to the member scratch buffer RelScratch; valid
  /// until the next relView call.
  const Knowledge &relView(const ThreadState &TS, Loc L);

  /// Appends a write carrying \p MsgK and applies writer-side effects.
  /// Returns new ts. \p MsgK must not be a history slot's Knowledge: the
  /// append may reallocate the cell's history arrays.
  Timestamp applyWrite(ThreadState &TS, Loc L, Value V, const Knowledge &MsgK,
                       bool Release);

  void reportRace(unsigned T, Loc L, const char *What);
  void reportFault(const char *Rule, std::string Msg);
  /// Faults if \p L is a freed cell (use-after-retire detection); called on
  /// every access path.
  void checkNotFreed(unsigned T, Loc L, const char *What);
  void traceOp(unsigned T, const std::string &Line);

  /// Records the footprint of the operation just executed.
  void noteOp(Loc L, Footprint::Kind K, bool Sc, bool Atomic = false) {
    LastFp.L = L;
    LastFp.K = K;
    LastFp.Sc = Sc;
    LastFp.Atomic = Atomic;
    ++OpSeqN;
  }

  /// Consumes the pending reads-from floor if it targets \p L; returns the
  /// floor timestamp, or 0 when none applies (timestamp 0 — the initial
  /// message — is never a real floor: a sleeping move's watermark is the
  /// history length at sleep time, which is at least 1).
  uint32_t takeRfFloor(Loc L) {
    if (!RfFloorOn || RfFloorLoc != L)
      return 0;
    RfFloorOn = false;
    return RfFloorTs;
  }

  ChoiceSource &Choices;
  Memory Mem;
  std::vector<ThreadState> Threads; ///< [0, LiveThreads) are registered;
                                    ///< the rest is retained storage.
  size_t LiveThreads = 0;
  /// Snapshot copies, one stack per entry of Threads (see saveSnapshot).
  /// A mutable thread() access marks its thread changed.
  std::vector<CopyStack<ThreadState>> Saved;

  /// Global SC view (fences and SeqCst accesses) — *physical only*.
  /// RC11's happens-before orders two SC fences' surroundings only when a
  /// reads-from edge connects them (which the RelFence/Acq machinery
  /// models); transferring logical event views through the SC order
  /// itself would over-approximate lhb and make the empty-consume axioms
  /// spuriously demanding (observed on the Chase-Lev deque).
  View ScPhys;
  CopyStack<View> ScSaved; ///< Snapshot copies of ScPhys; see scMut().
  unsigned LastCopies = 0; ///< See lastSnapshotCopies().
  bool Raced = false;
  std::string RaceMsg;
  const char *FaultRule = "RACE"; ///< Rule of the recorded fault.
  bool Tracing = false;
  std::vector<std::string> Trace;

  Footprint LastFp;   ///< Footprint of the most recent operation.
  uint64_t OpSeqN = 0; ///< Monotonic operation counter (never reset).

  /// Scratch buffers reused across operations so the hot paths allocate
  /// nothing at steady state (SmallVec keeps the common case inline; the
  /// Knowledges keep their capacity across calls).
  Knowledge RelScratch;
  Knowledge MsgScratch; ///< An RMW's message view, built before the append.
  SmallVec<Timestamp, 16> CandScratch; ///< loadWhere candidate timestamps.
  SmallVec<Timestamp, 16> FailScratch; ///< CAS failure-read timestamps.

  // Source-set reduction state (see the section above). All of it is
  // step-scoped: a floor is installed right before the restricted step and
  // cleared right after it, never across snapshots or executions.
  bool RfFloorOn = false;
  bool RfFloorEmpty = false;
  Loc RfFloorLoc = 0;
  uint32_t RfFloorTs = 0;
};

} // namespace compass::rmc

#endif // COMPASS_RMC_MACHINE_H
