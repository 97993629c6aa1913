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
/// scheduled only when a satisfying message is readable, which the
/// scheduler rescans at every step. Unbounded spinning that cannot be
/// expressed this way is handled by the per-execution step budget
/// (executions exceeding it are reported as StepLimit and counted as
/// diverged by the explorer; safety checking remains sound).
///
/// A step writes no scheduler or sleep state until its thread has resumed,
/// so a copy-on-write snapshot taken at any choice inside the step saves
/// the live state as the step's loop top (see the boundary section below).
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_SCHEDULER_H
#define COMPASS_SIM_SCHEDULER_H

#include "rmc/Machine.h"
#include "sim/Reduction.h"
#include "sim/Task.h"
#include "support/Choice.h"

#include <coroutine>
#include <memory>
#include <vector>

namespace compass::sim {

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

  /// Rewinds the scheduler to its pre-newThread() state: destroys the
  /// threads' coroutine frames while retaining thread records (Env
  /// objects, coroutine task slots, scratch vectors) for reuse by the next
  /// execution's newThread() calls, which must re-create threads in the
  /// same order. PreemptionBound and the reduction hook persist.
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
  // Copy-on-write boundaries (sim/Engine.h). A step writes no scheduler or
  // sleep state before its thread has resumed: the pick's preemption, LastRun
  // and the step count are added after the resume, the running thread's
  // record keeps its pending handle and blocked flag until the thread parks
  // again, and the reduction commits the step's sched point after the resume
  // (Reduction::commitChoice). So at any choice inside a step, the
  // scheduler's pick or an operation's, the live state is the state at the
  // step's loop top; only the loop top's tree position is captured per step.
  // saveBoundary copies that state; restoreBoundary puts it back, and the
  // next run() executes the step again from its loop top. The coroutine
  // frames the records point into are restored by the engine (sim/Task.h's
  // FrameArena), so no client code re-runs.
  //===--------------------------------------------------------------------===//

  /// One thread's scheduler record.
  struct ThreadMark {
    std::coroutine_handle<> Pending; ///< Resumed at the thread's next step
                                     ///< (stale once Done).
    rmc::Footprint NextFp; ///< Footprint of the pending operation.
    rmc::Loc WaitLoc = 0;
    rmc::ValuePred WaitPred;
    bool Blocked = false;
    bool Done = false;
  };

  /// The scheduler's state at a step's loop top — a decision boundary the
  /// copy-on-write engine can rewind to. TreePos is the ChoiceSource's
  /// decision count at the loop top, i.e. before the step's scheduler pick
  /// and any operation-level choices it leads to.
  struct Boundary {
    uint64_t Steps = 0;
    unsigned Preemptions = 0;
    unsigned LastRun = ~0u;
    size_t TreePos = 0;
    std::vector<ThreadMark> Threads; ///< Storage reused across saves.
    Reduction::SleepState Sleep;     ///< The attached reduction's, if any.
  };

  /// Saves the loop-top state of the current step into \p B, reusing its
  /// storage. Valid at any choice inside the step.
  void saveBoundary(Boundary &B) const;

  /// Rewinds to \p B, saved in this execution or an earlier one with the
  /// same threads and the same reduction attached.
  void restoreBoundary(const Boundary &B);

  // Internal API used by the awaitables. \p Fp is the footprint of the
  // operation the thread will perform when next scheduled, for the
  // reduction layer's independence checks.
  void park(unsigned Tid, std::coroutine_handle<> H, rmc::Footprint Fp);
  void parkBlocked(unsigned Tid, std::coroutine_handle<> H, rmc::Loc L,
                   rmc::ValuePred Pred, rmc::Footprint Fp);
  void requestPrune() { PruneRequested = true; }

private:
  /// A thread: its record (the ThreadMark base) plus what a rewind keeps.
  struct ThreadRec : ThreadMark {
    std::unique_ptr<Env> E;
    Task<void> Root;
    bool Started = false;
  };

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

  size_t TopPos = 0;   ///< The current step's loop-top tree position.
  bool Parked = false; ///< Whether the running thread parked in this step.

  /// Scratch for run()'s per-step enabled-thread scan and, at a sched
  /// choice, the reduction's view of it: each enabled thread's pending
  /// footprint and the current history length of its location
  /// (allocation-free at steady state).
  std::vector<unsigned> Enabled;
  std::vector<SleepMove> Alts;
};

namespace detail {

/// Base for one-shot memory-operation awaitables: suspend to the scheduler
/// (announcing the pending operation's footprint), perform the access on
/// resume. The access is the first thing a resumed step does, so a
/// snapshot taken at its choice sees the frame as it was at the loop top.
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
  rmc::Value await_resume() { return E.M.load(E.Tid, L, O); }
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
  void await_resume() { E.M.store(E.Tid, L, V, O); }
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
    return E.M.cas(E.Tid, L, Expected, Desired, SuccO, FailO);
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
  rmc::Value await_resume() { return E.M.fetchAdd(E.Tid, L, Add, O); }
};

struct FenceAwaiter : OpAwaiterBase {
  rmc::MemOrder O;
  FenceAwaiter(Env &E, rmc::MemOrder O)
      : OpAwaiterBase(E, {0, rmc::Footprint::Kind::Fence,
                          O == rmc::MemOrder::SeqCst}),
        O(O) {}
  void await_resume() { E.M.fence(E.Tid, O); }
};

struct PinAwaiter : OpAwaiterBase {
  bool Enter;
  PinAwaiter(Env &E, bool Enter)
      : OpAwaiterBase(E, {0, rmc::Footprint::Kind::Reclaim, false}),
        Enter(Enter) {}
  void await_resume() {
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
  void await_resume() { E.M.retire(E.Tid, L, Count); }
};

struct FreeAwaiter : OpAwaiterBase {
  rmc::Loc L;
  unsigned Count;
  FreeAwaiter(Env &E, rmc::Loc L, unsigned Count)
      : OpAwaiterBase(E, {L, rmc::Footprint::Kind::Free, false}), L(L),
        Count(Count) {}
  void await_resume() { E.M.freeCells(E.Tid, L, Count); }
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
  rmc::Value await_resume() { return E.M.loadWhere(E.Tid, L, O, Pred); }
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
