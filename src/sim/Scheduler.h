//===-- sim/Scheduler.h - Cooperative simulated-thread scheduler -*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cooperative scheduler driving simulated threads over the RMC
/// machine. Threads are coroutines (see Task.h); each simulated memory
/// operation suspends the thread and registers it with the scheduler, so
/// the interleaving of memory operations — the only events visible to the
/// memory model — is fully controlled by a ChoiceSource.
///
/// Threads may also *block* on a predicate over a location's readable
/// messages (`spinUntil`), modelling fair spin loops: a blocked thread is
/// scheduled only when a satisfying message is readable. Unbounded spinning
/// that cannot be expressed this way is handled by the per-execution step
/// budget (executions exceeding it are reported as StepLimit and counted as
/// diverged by the explorer; safety checking remains sound).
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_SCHEDULER_H
#define COMPASS_SIM_SCHEDULER_H

#include "rmc/Machine.h"
#include "sim/Task.h"
#include "support/Choice.h"

#include <coroutine>
#include <memory>
#include <vector>

namespace compass::sim {

class Reduction;
class Scheduler;

/// Per-thread execution environment handed to simulated-thread coroutines.
/// Provides awaitable factories for every memory operation; `co_await
/// E.load(L, O)` suspends to the scheduler and performs the access when the
/// thread is next scheduled.
struct Env {
  rmc::Machine &M;
  Scheduler &S;
  unsigned Tid;

  // Awaitable factories; definitions follow the Scheduler class.
  auto load(rmc::Loc L, rmc::MemOrder O);
  auto store(rmc::Loc L, rmc::Value V, rmc::MemOrder O);
  auto cas(rmc::Loc L, rmc::Value Expected, rmc::Value Desired,
           rmc::MemOrder SuccO,
           rmc::MemOrder FailO = rmc::MemOrder::Relaxed);
  auto fetchAdd(rmc::Loc L, rmc::Value Add, rmc::MemOrder O);
  auto fence(rmc::MemOrder O);

  /// Blocks until a readable message of \p L satisfies \p Pred, then reads
  /// one such message with order \p O. Models a fair spin loop.
  auto spinUntil(rmc::Loc L, rmc::ValuePred Pred, rmc::MemOrder O);

  // Reclamation ghost steps (simulated EBR; see rmc::Machine::pinEnter
  // and friends). Each is a scheduler-visible step of its own so the
  // source-set reduction sees its Reclaim/Free footprint.
  auto pinEnter();
  auto pinExit();
  auto retire(rmc::Loc L, unsigned Count = 1);
  auto freeCells(rmc::Loc L, unsigned Count = 1);

  /// Abandons this execution as a stutter (an identical retry-loop
  /// iteration that made no progress). Sound for safety checking: a
  /// stuttering iteration performs only reads and failed CASes, so every
  /// state it can reach is reached by the sibling execution that read
  /// fresher values. The awaited expression never resumes.
  auto prune();
};

/// Cooperative scheduler; see file comment.
class Scheduler {
public:
  /// Why a run ended.
  enum class RunResult {
    Done,       ///< All threads finished.
    Deadlock,   ///< Unfinished threads, none enabled.
    Race,       ///< The machine flagged a non-atomic data race.
    StepLimit,  ///< The step budget was exhausted (diverged/unfair run).
    Pruned,     ///< A thread flagged a stutter iteration (Env::prune).
    SleepPruned, ///< The source-set reduction cut this branch
                 ///< (Reduction.h).
    RfPruned ///< A source-set restricted re-run found its reads-from
             ///< option set empty: every reads-from choice of the step was
             ///< already covered by the sibling that ran the move earlier
             ///< (Reduction.h).
  };

  Scheduler(rmc::Machine &M, ChoiceSource &Choices)
      : M(M), Choices(Choices) {}

  /// Bounds the number of *preemptive* context switches (switching away
  /// from a thread that is still enabled), CHESS-style [Musuvathi &
  /// Qadeer]. Unlimited by default; small bounds make exhaustive
  /// exploration of 3+-thread clients tractable while covering all
  /// low-preemption interleavings. Non-preemptive switches (after a thread
  /// blocks or finishes) are always explored fully.
  void setPreemptionBound(unsigned Bound) { PreemptionBound = Bound; }

  /// Attaches a source-set reduction (or nullptr to disable). The scheduler
  /// feeds it every thread-choice point and every executed step; when it
  /// reports the picked move asleep, run() ends with SleepPruned. The
  /// pointer must stay valid for the scheduler's lifetime. Persists across
  /// reset().
  void setReduction(Reduction *R) { Red = R; }

  /// Rewinds the scheduler to its pre-newThread() state while retaining
  /// thread records (Env objects, coroutine task slots, scratch vectors)
  /// for reuse by the next execution's newThread() calls, which must
  /// re-create threads in the same order. PreemptionBound and the
  /// reduction hook persist.
  void reset();

  /// Creates a new simulated thread and returns its environment. The
  /// returned reference is stable for the scheduler's lifetime. Pass it to
  /// a coroutine function and attach the resulting task with start().
  Env &newThread();

  /// Attaches \p Root as the body of \p E's thread. Must be called exactly
  /// once per newThread(), before run(). \p Root must be a coroutine that
  /// received this thread's Env (threads must not share an Env).
  void start(Env &E, Task<void> Root);

  /// Runs until completion, deadlock, race, or the step budget.
  RunResult run(uint64_t MaxSteps = 1 << 20);

  uint64_t steps() const { return Steps; }

  /// True if the thread \p Tid has finished. Valid after run().
  bool finished(unsigned Tid) const { return Threads[Tid]->Done; }

  //===--------------------------------------------------------------------===//
  // Copy-on-write journaling (sim/Engine.h). In Record mode run() logs
  // every scheduled thread (StepLog) and every value a memory operation
  // returned (OpLog). A later fast-forward re-resumes the same threads in
  // the same order while the awaiters serve results from the journal
  // instead of re-executing machine operations — client coroutine state is
  // recomputed, machine state is restored from a snapshot. The op journal
  // is the only thing a fast-forward replays.
  //===--------------------------------------------------------------------===//

  enum class JournalMode : uint8_t { Off, Record, Replay };

  /// One journaled operation result: the returned value (for a CAS, the
  /// observed old value), the timestamp of the message an atomic read read
  /// (replayed into Machine::setLastReadTs, so client code between awaits
  /// sees the same lastReadTs), plus a CAS's success flag.
  struct OpEntry {
    rmc::Value Val = 0;
    rmc::Timestamp Ts = 0;
    bool Flag = false;
  };
  static_assert(sizeof(OpEntry) == 16, "OpEntry grew");

  /// One journaled step: the scheduled thread plus the op journal's and
  /// the machine's aux marks right *after* the step. Fast-forward can skip
  /// a whole step of a thread that is finished at the snapshot boundary by
  /// jumping to these marks instead of re-resuming the coroutine.
  struct StepEnt {
    unsigned Tid = 0;
    uint32_t OpEnd = 0;
    rmc::Machine::AuxMark AuxEnd;
  };

  /// The scheduler's loop-top state right before a step — a decision
  /// boundary the copy-on-write engine can rewind to. TreePos is the
  /// ChoiceSource's decision count at the loop top, i.e. before this
  /// step's scheduler pick and any operation-level choices it leads to.
  struct Boundary {
    uint64_t Steps = 0;
    unsigned Preemptions = 0;
    unsigned LastRun = ~0u;
    size_t OpEntries = 0;
    size_t TreePos = 0;
    /// Bitmask of threads (tid < 64) already finished at the boundary.
    /// A fast-forward targeting this boundary may skip their steps when
    /// the workload declares that sound (Workload::Body::CowSkipFinished):
    /// a finished thread never runs in the subtree, so its recomputed
    /// coroutine frame is never needed again.
    uint64_t FinishedMask = 0;
  };

  JournalMode journalMode() const { return Mode; }

  /// Starts a recorded execution: clears both journals, enters Record mode.
  void beginJournal() {
    StepLog.clear();
    OpLog.clear();
    OpCursor = 0;
    Mode = JournalMode::Record;
    LoopTop = Boundary();
  }

  /// Leaves journaling entirely (classic exploration / replay() paths).
  void stopJournal() {
    StepLog.clear();
    OpLog.clear();
    OpCursor = 0;
    Mode = JournalMode::Off;
  }

  /// The loop-top boundary of the step currently executing (Record mode).
  /// A snapshot hook firing at a choice inside the step reads it to mark
  /// the rewind point.
  const Boundary &captureBoundary() const { return LoopTop; }

  // Journal access for the awaiters (hot path). \p Read says whether the
  // operation is an atomic read, which sets thread \p Tid's last read.
  void recordOp(unsigned Tid, bool Read, rmc::Value V, bool Flag = false) {
    OpLog.push_back({V, Read ? M.lastReadTs(Tid) : 0, Flag});
  }
  const OpEntry &nextOp(unsigned Tid, bool Read) {
    if (OpCursor >= OpLog.size())
      journalUnderrun();
    const OpEntry &En = OpLog[OpCursor++];
    if (Read)
      M.setLastReadTs(Tid, En.Ts);
    return En;
  }

  /// Enters Replay mode: fastForward() resumes serve journaled results.
  void beginFastForward() {
    Mode = JournalMode::Replay;
    OpCursor = 0;
  }

  /// Re-resumes the first \p NSteps journaled steps with machine operations
  /// elided. The caller must have reset the scheduler and re-run Setup (so
  /// the coroutines exist afresh) and put the machine in replay mode.
  /// Steps of threads in \p SkipMask (the boundary's FinishedMask, when
  /// the workload allows skipping) are not re-resumed at all: the journal
  /// cursors jump over them and the threads are marked finished afterwards.
  void fastForward(uint64_t NSteps, uint64_t SkipMask = 0);

  /// Leaves Replay at boundary \p B: validates the journal cursor,
  /// truncates both journals to the boundary, restores the step/preemption
  /// counters, and resumes Record mode for the live suffix.
  void endFastForward(const Boundary &B);

  // Internal API used by the awaitables. \p Fp is the footprint of the
  // operation the thread will perform when next scheduled, for the
  // reduction layer's independence checks.
  void park(unsigned Tid, std::coroutine_handle<> H, rmc::Footprint Fp);
  void parkBlocked(unsigned Tid, std::coroutine_handle<> H, rmc::Loc L,
                   rmc::ValuePred Pred, rmc::Footprint Fp);
  void requestPrune() { PruneRequested = true; }

private:
  struct ThreadRec {
    std::unique_ptr<Env> E;
    Task<void> Root;
    std::coroutine_handle<> Pending;
    rmc::Footprint NextFp; ///< Footprint of the pending operation.
    bool Started = false;
    bool Done = false;
    bool Blocked = false;
    rmc::Loc WaitLoc = 0;
    rmc::ValuePred WaitPred;
    // Memoized wait-scan verdict: within one execution a cell's history
    // only grows and a blocked thread's own view is frozen, so the scan
    // result holds until the history length or the scan's floor (raised
    // by the SC view for a seq_cst wait) changes. Invalidated on
    // (re)parking and across execution/rewind boundaries, where the same
    // length can denote different slot contents.
    rmc::Loc CacheLoc = 0;
    size_t CacheLen = 0;
    rmc::Timestamp CacheFrom = 0;
    bool CacheResult = false;
    bool CacheValid = false;
  };

  [[noreturn]] void journalUnderrun() const;

  rmc::Machine &M;
  ChoiceSource &Choices;
  std::vector<std::unique_ptr<ThreadRec>> Threads; ///< [0, LiveThreads)
                                                   ///< live; rest retained.
  size_t LiveThreads = 0;
  uint64_t Steps = 0;
  unsigned PreemptionBound = ~0u;
  unsigned Preemptions = 0;
  unsigned LastRun = ~0u;
  bool PruneRequested = false;
  Reduction *Red = nullptr;

  // Copy-on-write journals (see the COW section above). Persist across
  // reset(): the engine controls their lifetime via beginJournal /
  // beginFastForward / endFastForward.
  JournalMode Mode = JournalMode::Off;
  std::vector<StepEnt> StepLog; ///< Executed steps with cursor end marks.
  std::vector<OpEntry> OpLog;   ///< Results of value-returning ops.
  size_t OpCursor = 0;
  Boundary LoopTop; ///< Loop-top scratch, updated per step in Record mode.
  uint64_t DoneMask = 0; ///< Finished threads with tid < 64 (live mirror).

  /// Scratch for run()'s per-step enabled-thread scan (allocation-free at
  /// steady state). EnabledHist carries, per enabled thread, the current
  /// history length of its pending footprint's location — the reads-from
  /// watermark material for the source-set reduction.
  std::vector<unsigned> Enabled;
  std::vector<rmc::Footprint> EnabledFps;
  std::vector<uint32_t> EnabledHist;
};

namespace detail {

/// Base for one-shot memory-operation awaitables: suspend to the scheduler
/// (announcing the pending operation's footprint), perform the access on
/// resume. During a copy-on-write fast-forward (JournalMode::Replay) the
/// machine call is elided: value-returning operations serve the journaled
/// result (an atomic read also hands back its timestamp), void operations
/// do nothing — the machine's state is restored from a snapshot instead.
struct OpAwaiterBase {
  Env &E;
  rmc::Footprint Fp;
  OpAwaiterBase(Env &E, rmc::Footprint Fp) : E(E), Fp(Fp) {}
  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> H) { E.S.park(E.Tid, H, Fp); }
};

struct LoadAwaiter : OpAwaiterBase {
  rmc::Loc L;
  rmc::MemOrder O;
  LoadAwaiter(Env &E, rmc::Loc L, rmc::MemOrder O)
      : OpAwaiterBase(E, {L, rmc::Footprint::Kind::Read,
                          O == rmc::MemOrder::SeqCst,
                          O != rmc::MemOrder::NonAtomic}),
        L(L), O(O) {}
  rmc::Value await_resume() {
    Scheduler &S = E.S;
    const bool Atomic = O != rmc::MemOrder::NonAtomic;
    if (S.journalMode() == Scheduler::JournalMode::Replay)
      return S.nextOp(E.Tid, Atomic).Val;
    rmc::Value V = E.M.load(E.Tid, L, O);
    if (S.journalMode() == Scheduler::JournalMode::Record)
      S.recordOp(E.Tid, Atomic, V);
    return V;
  }
};

struct StoreAwaiter : OpAwaiterBase {
  rmc::Loc L;
  rmc::Value V;
  rmc::MemOrder O;
  StoreAwaiter(Env &E, rmc::Loc L, rmc::Value V, rmc::MemOrder O)
      : OpAwaiterBase(E, {L, rmc::Footprint::Kind::Write,
                          O == rmc::MemOrder::SeqCst,
                          O != rmc::MemOrder::NonAtomic}),
        L(L), V(V), O(O) {}
  void await_resume() {
    if (E.S.journalMode() == Scheduler::JournalMode::Replay)
      return;
    E.M.store(E.Tid, L, V, O);
  }
};

struct CasAwaiter : OpAwaiterBase {
  rmc::Loc L;
  rmc::Value Expected, Desired;
  rmc::MemOrder SuccO, FailO;
  // The pending footprint is the pessimistic Update: whether the CAS will
  // succeed depends on the state at execution time. The machine reports
  // the precise executed footprint (Read on failure) afterwards.
  CasAwaiter(Env &E, rmc::Loc L, rmc::Value Expected, rmc::Value Desired,
             rmc::MemOrder SuccO, rmc::MemOrder FailO)
      : OpAwaiterBase(E, {L, rmc::Footprint::Kind::Update,
                          SuccO == rmc::MemOrder::SeqCst ||
                              FailO == rmc::MemOrder::SeqCst,
                          /*Atomic=*/true}),
        L(L), Expected(Expected), Desired(Desired), SuccO(SuccO),
        FailO(FailO) {}
  rmc::Machine::CasResult await_resume() {
    Scheduler &S = E.S;
    if (S.journalMode() == Scheduler::JournalMode::Replay) {
      const Scheduler::OpEntry &En = S.nextOp(E.Tid, true);
      return {En.Flag, En.Val};
    }
    rmc::Machine::CasResult R =
        E.M.cas(E.Tid, L, Expected, Desired, SuccO, FailO);
    if (S.journalMode() == Scheduler::JournalMode::Record)
      S.recordOp(E.Tid, true, R.Old, R.Success);
    return R;
  }
};

struct FaaAwaiter : OpAwaiterBase {
  rmc::Loc L;
  rmc::Value Add;
  rmc::MemOrder O;
  FaaAwaiter(Env &E, rmc::Loc L, rmc::Value Add, rmc::MemOrder O)
      : OpAwaiterBase(E, {L, rmc::Footprint::Kind::Update,
                          O == rmc::MemOrder::SeqCst, /*Atomic=*/true}),
        L(L), Add(Add), O(O) {}
  rmc::Value await_resume() {
    Scheduler &S = E.S;
    if (S.journalMode() == Scheduler::JournalMode::Replay)
      return S.nextOp(E.Tid, true).Val;
    rmc::Value V = E.M.fetchAdd(E.Tid, L, Add, O);
    if (S.journalMode() == Scheduler::JournalMode::Record)
      S.recordOp(E.Tid, true, V);
    return V;
  }
};

struct FenceAwaiter : OpAwaiterBase {
  rmc::MemOrder O;
  FenceAwaiter(Env &E, rmc::MemOrder O)
      : OpAwaiterBase(E, {0, rmc::Footprint::Kind::Fence,
                          O == rmc::MemOrder::SeqCst}),
        O(O) {}
  void await_resume() {
    if (E.S.journalMode() == Scheduler::JournalMode::Replay)
      return;
    E.M.fence(E.Tid, O);
  }
};

struct PinAwaiter : OpAwaiterBase {
  bool Enter;
  PinAwaiter(Env &E, bool Enter)
      : OpAwaiterBase(E, {0, rmc::Footprint::Kind::Reclaim, false}),
        Enter(Enter) {}
  void await_resume() {
    if (E.S.journalMode() == Scheduler::JournalMode::Replay)
      return;
    if (Enter)
      E.M.pinEnter(E.Tid);
    else
      E.M.pinExit(E.Tid);
  }
};

struct RetireAwaiter : OpAwaiterBase {
  rmc::Loc L;
  unsigned Count;
  RetireAwaiter(Env &E, rmc::Loc L, unsigned Count)
      : OpAwaiterBase(E, {L, rmc::Footprint::Kind::Reclaim, false}), L(L),
        Count(Count) {}
  void await_resume() {
    if (E.S.journalMode() == Scheduler::JournalMode::Replay)
      return;
    E.M.retire(E.Tid, L, Count);
  }
};

struct FreeAwaiter : OpAwaiterBase {
  rmc::Loc L;
  unsigned Count;
  FreeAwaiter(Env &E, rmc::Loc L, unsigned Count)
      : OpAwaiterBase(E, {L, rmc::Footprint::Kind::Free, false}), L(L),
        Count(Count) {}
  void await_resume() {
    if (E.S.journalMode() == Scheduler::JournalMode::Replay)
      return;
    E.M.freeCells(E.Tid, L, Count);
  }
};

struct PruneAwaiter {
  Env &E;
  explicit PruneAwaiter(Env &E) : E(E) {}
  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> H) {
    // Re-park so coroutine teardown stays uniform; the scheduler stops
    // before ever resuming this thread again. Kind::None: dependent on
    // everything (irrelevant in practice — the run ends here).
    E.S.park(E.Tid, H, rmc::Footprint());
    E.S.requestPrune();
  }
  void await_resume() {}
};

struct SpinAwaiter {
  Env &E;
  rmc::Loc L;
  rmc::ValuePred Pred;
  rmc::MemOrder O;
  SpinAwaiter(Env &E, rmc::Loc L, rmc::ValuePred Pred, rmc::MemOrder O)
      : E(E), L(L), Pred(std::move(Pred)), O(O) {}
  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> H) {
    E.S.parkBlocked(E.Tid, H, L, Pred,
                    {L, rmc::Footprint::Kind::Read,
                     O == rmc::MemOrder::SeqCst,
                     O != rmc::MemOrder::NonAtomic});
  }
  rmc::Value await_resume() {
    Scheduler &S = E.S;
    if (S.journalMode() == Scheduler::JournalMode::Replay)
      return S.nextOp(E.Tid, true).Val;
    rmc::Value V = E.M.loadWhere(E.Tid, L, O, Pred);
    if (S.journalMode() == Scheduler::JournalMode::Record)
      S.recordOp(E.Tid, true, V);
    return V;
  }
};

} // namespace detail

inline auto Env::load(rmc::Loc L, rmc::MemOrder O) {
  return detail::LoadAwaiter(*this, L, O);
}
inline auto Env::store(rmc::Loc L, rmc::Value V, rmc::MemOrder O) {
  return detail::StoreAwaiter(*this, L, V, O);
}
inline auto Env::cas(rmc::Loc L, rmc::Value Expected, rmc::Value Desired,
                     rmc::MemOrder SuccO, rmc::MemOrder FailO) {
  return detail::CasAwaiter(*this, L, Expected, Desired, SuccO, FailO);
}
inline auto Env::fetchAdd(rmc::Loc L, rmc::Value Add, rmc::MemOrder O) {
  return detail::FaaAwaiter(*this, L, Add, O);
}
inline auto Env::fence(rmc::MemOrder O) {
  return detail::FenceAwaiter(*this, O);
}
inline auto Env::spinUntil(rmc::Loc L, rmc::ValuePred Pred, rmc::MemOrder O) {
  return detail::SpinAwaiter(*this, L, std::move(Pred), O);
}
inline auto Env::prune() { return detail::PruneAwaiter(*this); }
inline auto Env::pinEnter() { return detail::PinAwaiter(*this, true); }
inline auto Env::pinExit() { return detail::PinAwaiter(*this, false); }
inline auto Env::retire(rmc::Loc L, unsigned Count) {
  return detail::RetireAwaiter(*this, L, Count);
}
inline auto Env::freeCells(rmc::Loc L, unsigned Count) {
  return detail::FreeAwaiter(*this, L, Count);
}

} // namespace compass::sim

#endif // COMPASS_SIM_SCHEDULER_H
