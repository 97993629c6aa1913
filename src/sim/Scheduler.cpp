//===-- sim/Scheduler.cpp - Cooperative simulated-thread scheduler --------===//


#include "sim/Scheduler.h"

#include "support/Error.h"

#include <cassert>

using namespace compass;
using namespace compass::sim;

Env &Scheduler::newThread() {
  unsigned Tid = M.addThread();
  if (LiveThreads < Threads.size()) {
    // Recycle a retained record from an earlier execution. Executions
    // re-create threads in the same order, so the recycled Env (whose M,
    // S and Tid are immutable) is exactly the one this thread needs.
    ThreadRec &Rec = *Threads[LiveThreads];
    assert(Rec.E && Rec.E->Tid == Tid &&
           "thread records must be recycled in creation order");
    Rec.Pending = nullptr;
    Rec.NextFp = rmc::Footprint();
    Rec.Started = false;
    Rec.Done = false;
    Rec.Blocked = false;
    Rec.WaitLoc = 0;
    Rec.WaitPred = nullptr;
    ++LiveThreads;
    return *Rec.E;
  }
  auto Rec = std::make_unique<ThreadRec>();
  Rec->E = std::make_unique<Env>(Env{M, *this, Tid});
  Env &Out = *Rec->E;
  Threads.push_back(std::move(Rec));
  ++LiveThreads;
  assert(LiveThreads == M.numThreads() &&
         "threads must be created through the scheduler");
  return Out;
}

void Scheduler::reset() {
  // The frames go first: an engine rewinds their arena right after.
  for (const std::unique_ptr<ThreadRec> &Rec : Threads)
    Rec->Root = Task<void>();
  LiveThreads = 0;
  Steps = 0;
  Preemptions = 0;
  LastRun = ~0u;
  PruneRequested = false;
  // Thread records, PreemptionBound and the reduction hook persist; the
  // caller resets the machine and (for reduced runs) the Reduction
  // separately.
}

void Scheduler::saveBoundary(Boundary &B) const {
  // Nothing the step does before its resume writes this state, so the live
  // counters and records are the loop top's (see Scheduler.h).
  B.Steps = Steps;
  B.Preemptions = Preemptions;
  B.LastRun = LastRun;
  B.TreePos = TopPos;
  B.Threads.resize(LiveThreads);
  for (size_t I = 0; I != LiveThreads; ++I)
    B.Threads[I] = *Threads[I];
  if (Red)
    Red->save(B.Sleep);
}

void Scheduler::restoreBoundary(const Boundary &B) {
  if (B.Threads.size() != LiveThreads)
    fatalError("copy-on-write restore: thread count diverged from snapshot");
  for (size_t I = 0; I != LiveThreads; ++I)
    static_cast<ThreadMark &>(*Threads[I]) = B.Threads[I];
  Steps = B.Steps;
  Preemptions = B.Preemptions;
  LastRun = B.LastRun;
  PruneRequested = false;
  if (Red)
    Red->restore(B.Sleep);
}

void Scheduler::start(Env &E, Task<void> Root) {
  ThreadRec &Rec = *Threads[E.Tid];
  assert(!Rec.Started && "thread already started");
  assert(Rec.E.get() == &E && "start() must use the thread's own Env");
  Rec.Root = std::move(Root);
  Rec.Pending = Rec.Root.handle();
  Rec.Started = true;
  // The first resume runs thread-local setup up to the first memory
  // operation; it touches no shared state.
  Rec.NextFp = rmc::Footprint{0, rmc::Footprint::Kind::Start, false};
}

void Scheduler::park(unsigned Tid, std::coroutine_handle<> H,
                     rmc::Footprint Fp) {
  assert(!Parked && "thread parked twice in one step");
  ThreadRec &Rec = *Threads[Tid];
  Rec.Pending = H;
  Rec.NextFp = Fp;
  Rec.Blocked = false;
  Parked = true;
}

void Scheduler::parkBlocked(unsigned Tid, std::coroutine_handle<> H,
                            rmc::Loc L, rmc::ValuePred Pred,
                            rmc::Footprint Fp) {
  park(Tid, H, Fp);
  ThreadRec &Rec = *Threads[Tid];
  Rec.Blocked = true;
  Rec.WaitLoc = L;
  Rec.WaitPred = std::move(Pred);
}

Scheduler::RunResult Scheduler::run(uint64_t MaxSteps) {
  for (size_t I = 0; I != LiveThreads; ++I)
    if (!Threads[I]->Started)
      fatalError("scheduler run() with an unstarted thread");

  for (;;) {
    if (M.raceDetected())
      return RunResult::Race;
    if (PruneRequested)
      return RunResult::Pruned;

    Enabled.clear();
    bool AnyUnfinished = false;
    for (unsigned Tid = 0, E = static_cast<unsigned>(LiveThreads); Tid != E;
         ++Tid) {
      const ThreadRec &Rec = *Threads[Tid];
      if (Rec.Done)
        continue;
      AnyUnfinished = true;
      // A blocked thread is enabled once a message it may read satisfies
      // its wait (a seq_cst wait reads from the SC view too).
      if (!Rec.Blocked || M.anyReadableSatisfies(Tid, Rec.WaitLoc,
                                                 Rec.NextFp.Sc, Rec.WaitPred))
        Enabled.push_back(Tid);
    }

    if (!AnyUnfinished)
      return RunResult::Done;
    if (Enabled.empty())
      return RunResult::Deadlock;
    if (Steps >= MaxSteps)
      return RunResult::StepLimit;

    // The loop top of the step about to execute: a snapshot taken at any
    // choice inside it rewinds here. Until the picked thread resumes,
    // nothing below writes the scheduler's or the reduction's state.
    TopPos = Choices.decisionPosition();

    // Preemption bounding (CHESS): once the budget is spent, a thread that
    // is still enabled keeps running; switches are only explored when the
    // current thread blocked or finished, or while budget remains.
    bool LastEnabled = false;
    for (unsigned Tid : Enabled)
      LastEnabled |= Tid == LastRun;
    unsigned Pick;
    bool Chose = false; // Whether a real sched decision was recorded.
    if (LastEnabled && Preemptions >= PreemptionBound) {
      Pick = 0;
      while (Enabled[Pick] != LastRun)
        ++Pick;
    } else if (Enabled.size() == 1) {
      Pick = 0;
    } else {
      const unsigned N = static_cast<unsigned>(Enabled.size());
      Pick = Choices.choose(N, N, ChoiceKind::Sched);
      Chose = true;
    }
    const unsigned Tid = Enabled[Pick];
    ThreadRec &Rec = *Threads[Tid];

    bool RestrictedStep = false;
    if (Red) {
      // History length of a pending footprint's location — the reads-from
      // watermark material for the source-set refinement. Only read/write/
      // update footprints carry a meaningful location.
      auto HistOf = [this](const rmc::Footprint &Fp) -> uint32_t {
        using K = rmc::Footprint::Kind;
        if (Fp.K != K::Read && Fp.K != K::Write && Fp.K != K::Update)
          return 0;
        return static_cast<uint32_t>(M.historyLen(Fp.L));
      };
      Reduction::Verdict V;
      if (Chose) {
        // A real choice point: siblings exist, so alternatives before the
        // pick go to sleep (when the step commits) and the pick itself is
        // prune-checked.
        Alts.clear();
        for (unsigned T : Enabled) {
          const rmc::Footprint &Fp = Threads[T]->NextFp;
          Alts.push_back(SleepMove{T, Fp, HistOf(Fp)});
        }
        V = Red->onSchedChoice(Alts, Pick);
      } else {
        // Forced or singleton pick: no sibling branch covers a delayed
        // version of a sleeping move here, so only prune-check.
        V = Red->onSchedule(Tid, HistOf(Rec.NextFp));
      }
      if (V == Reduction::Verdict::Prune)
        return RunResult::SleepPruned; // The point committed at once.
      if (V == Reduction::Verdict::Restricted) {
        // Source-set restricted re-run of a sleeping read/update: only the
        // reads-from options at or past the watermark are new; the machine
        // filters the step's choice set accordingly.
        M.setRfFloor(Red->restrictLoc(), Red->restrictVer());
        RestrictedStep = true;
      }
    }

    const bool Preempts = LastEnabled && Tid != LastRun;
    const std::coroutine_handle<> H = Rec.Pending;
    const uint64_t Seq0 = M.opSeq();
    Parked = false;
    H.resume();
    ++Steps;
    Preemptions += Preempts;
    LastRun = Tid;
    if (Chose && Red)
      Red->commitChoice();

    if (RestrictedStep) {
      // The restricted choice set can come up empty only for a predicated
      // spin read (loadWhere): no new message satisfies the predicate, so
      // every reads-from option was covered by the sibling that ran the
      // move before the intervening writes.
      const bool Empty = M.clearRfFloor();
      if (Empty)
        return RunResult::RfPruned;
    }

    if (Red) {
      // Report the executed step so dependent sleeping moves wake. A
      // resume normally performs exactly one machine operation (the parked
      // awaiter's); the start resume and Env::prune perform none. Anything
      // else (client code invoking the machine directly mid-step) is
      // reported with an unknown footprint, which wakes everyone —
      // conservative but sound.
      const uint64_t Delta = M.opSeq() - Seq0;
      if (Delta == 1)
        Red->onStepExecuted(Tid, M.lastFootprint());
      else if (Delta > 1)
        Red->onStepExecuted(Tid, rmc::Footprint());
    }

    // The thread either parked at its next memory operation (overwriting
    // its record) or ran to completion.
    if (Rec.Root.done())
      Rec.Done = true;
    else if (!Parked)
      fatalError("thread stopped without parking or ending");
  }
}
