//===-- sim/ParallelExplorer.cpp - Multi-worker DFS exploration -----------===//

#include "sim/ParallelExplorer.h"

#include "sim/Engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

using namespace compass;
using namespace compass::sim;

namespace {

/// State shared by all workers of one exploration: one FIFO queue of
/// unexplored subtree prefixes under one lock, starting with the root
/// prefix. The exploration is over once the queue is empty and no worker
/// holds a subtree — only a busy worker pushes, so nothing can arrive
/// after that.
struct SharedState {
  std::mutex Mu; ///< Guards Queue and Done.
  std::condition_variable Cv;
  std::deque<DecisionTree::Prefix> Queue{DecisionTree::Prefix{}};
  bool Done = false;

  // Written under Mu, read without it by the donation rule and the final
  // Perf fields.
  std::atomic<uint64_t> QueuedTotal{1}; ///< Queue.size().
  std::atomic<unsigned> Busy{0};        ///< Workers holding a subtree.
  std::atomic<uint64_t> PeakQueue{1};
  std::atomic<uint64_t> Donations{0};

  /// Cooperative interrupt: workers finish their in-flight execution and
  /// exit, leaving their subtrees unfinished.
  std::atomic<bool> Interrupt{false};

  /// Global execution budget (Options::MaxExecutions), claimed one ticket
  /// per execution so a run performs exactly as many executions at any
  /// worker count. Every worker writes it after every execution, so it has
  /// a cache line to itself, away from the fields above that every worker
  /// reads then.
  alignas(64) std::atomic<uint64_t> Tickets{0};

  /// Appends donated \p Prefixes to the queue and wakes sleeping workers.
  void donate(std::vector<DecisionTree::Prefix> Prefixes) {
    if (Prefixes.empty())
      return;
    std::lock_guard<std::mutex> L(Mu);
    for (DecisionTree::Prefix &P : Prefixes)
      Queue.push_back(std::move(P));
    QueuedTotal.store(Queue.size(), std::memory_order_relaxed);
    if (Queue.size() > PeakQueue.load(std::memory_order_relaxed))
      PeakQueue.store(Queue.size(), std::memory_order_relaxed);
    Donations.fetch_add(Prefixes.size(), std::memory_order_relaxed);
    Cv.notify_all();
  }

  /// Blocks until a prefix is available (true) or the exploration is over
  /// (false) — every subtree finished, or an interrupt was raised.
  bool acquire(DecisionTree::Prefix &Out) {
    std::unique_lock<std::mutex> L(Mu);
    for (;;) {
      if (Done)
        return false;
      if (Interrupt.load(std::memory_order_relaxed)) {
        Done = true;
        Cv.notify_all();
        return false;
      }
      if (!Queue.empty()) {
        Out = std::move(Queue.front());
        Queue.pop_front();
        QueuedTotal.store(Queue.size(), std::memory_order_relaxed);
        Busy.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      Cv.wait(L);
    }
  }

  /// Marks the worker's current subtree finished; the last one ends the
  /// exploration.
  void finishSubtree() {
    std::lock_guard<std::mutex> L(Mu);
    if (Busy.fetch_sub(1, std::memory_order_relaxed) == 1 && Queue.empty()) {
      Done = true;
      Cv.notify_all();
    }
  }
};

/// The process-wide parked helper threads behind every multi-worker call
/// and runOnHelpers (see the file comment of sim/ParallelExplorer.h).
class Helpers {
public:
  using Job = std::function<void(unsigned Wid)>;

  static Helpers &get() {
    static Helpers Pool;
    return Pool;
  }

  /// Runs \p Fn(0) on the calling thread and Fn(1) .. Fn(N-1) on helpers;
  /// returns once every helper it took has finished and parked again. An
  /// exception escaping a worker ends the process, wherever it runs.
  void run(unsigned N, const Job &Fn) noexcept {
    Call C{&Fn, N - 1, {}};
    {
      std::lock_guard<std::mutex> L(Mu);
      for (unsigned Wid = 1; Wid != N; ++Wid) {
        Helper *H;
        if (Parked.empty()) {
          All.push_back(std::make_unique<Helper>());
          H = All.back().get();
          H->Th = std::thread(&Helpers::serve, this, H);
        } else {
          H = Parked.back();
          Parked.pop_back();
        }
        H->C = &C;
        H->Wid = Wid;
        H->Wake.notify_one();
      }
    }
    Fn(0);
    std::unique_lock<std::mutex> L(Mu);
    C.Finished.wait(L, [&C] { return C.Pending == 0; });
  }

  ~Helpers() {
    {
      std::lock_guard<std::mutex> L(Mu);
      Quit = true;
      for (const std::unique_ptr<Helper> &H : All)
        H->Wake.notify_one();
    }
    for (const std::unique_ptr<Helper> &H : All)
      H->Th.join();
  }

private:
  /// One run() call; lives on the caller's stack.
  struct Call {
    const Job *Fn;
    unsigned Pending; ///< Helpers not yet parked again; guarded by Mu.
    std::condition_variable Finished;
  };

  struct Helper {
    std::thread Th;
    std::condition_variable Wake;
    Call *C = nullptr; ///< The call to serve; guarded by Mu.
    unsigned Wid = 0;
  };

  /// A helper's life: wait for a call, run its worker, park again.
  void serve(Helper *H) {
    std::unique_lock<std::mutex> L(Mu);
    for (;;) {
      H->Wake.wait(L, [&] { return H->C || Quit; });
      if (!H->C)
        return;
      Call *C = H->C;
      L.unlock();
      (*C->Fn)(H->Wid);
      L.lock();
      H->C = nullptr;
      Parked.push_back(H);
      // Notified under Mu: the caller cannot see Pending reach 0, return
      // and free C before this helper lets go of Mu.
      if (--C->Pending == 0)
        C->Finished.notify_one();
    }
  }

  std::mutex Mu;
  bool Quit = false;
  std::vector<std::unique_ptr<Helper>> All;
  std::vector<Helper *> Parked; ///< Back = most recently parked.
};

/// One worker's exploration kit: an explorer and the machine, scheduler
/// and copy-on-write engine bound to it (see the file comment of
/// sim/ParallelExplorer.h).
struct Kit {
  Explorer Ex;
  rmc::Machine M{Ex};
  Scheduler S{M, Ex};
  Engine Eng{Ex, M, S};
};

/// A kit leased from the calling thread's idle kits for one worker of one
/// call: reset to the call's options and bound to the worker's body, then
/// unbound and handed back. A thread builds a kit only when it has no idle
/// one (its first worker, or a call nested in a worker on the same
/// thread), and keeps its kits until it exits.
class KitLease {
public:
  KitLease(const Explorer::Options &Opts, Workload::Body &Body) {
    std::vector<std::unique_ptr<Kit>> &Idle = idle();
    if (Idle.empty()) {
      K = std::make_unique<Kit>();
    } else {
      K = std::move(Idle.back());
      Idle.pop_back();
    }
    K->Ex.reset(Opts);
    K->Eng.bind(Body);
  }
  ~KitLease() {
    K->Eng.unbind();
    idle().push_back(std::move(K));
  }
  KitLease(const KitLease &) = delete;
  KitLease &operator=(const KitLease &) = delete;

  Kit *operator->() { return K.get(); }

private:
  static std::vector<std::unique_ptr<Kit>> &idle() {
    thread_local std::vector<std::unique_ptr<Kit>> Idle;
    return Idle;
  }

  std::unique_ptr<Kit> K;
};

/// The one exploration loop behind exploreResumable, explore and
/// exploreSerial: \p N workers, of which the calling thread is worker 0.
ExploreResult runWorkers(const Workload &W, unsigned N,
                         const ExploreControl &Ctl) {
  const Explorer::Options &Opts = W.options();
  using Clock = std::chrono::steady_clock;
  auto Elapsed = [Start = Clock::now()] {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  };

  SharedState Sh;

  // Per-worker partial summaries, merged in worker order at the end (all
  // core fields merge commutatively, so the order is immaterial — it just
  // keeps the aggregation obviously deterministic).
  std::vector<Explorer::Summary> Partials(N);

  // Checked before each execution by every worker that has work left:
  // true once the exploration is interrupted, raising the interrupt when
  // one of the external controls trips. So the interrupt is raised only
  // while some subtree is unfinished.
  auto Interrupted = [&] {
    if (Sh.Interrupt.load(std::memory_order_relaxed))
      return true;
    if ((Ctl.StopRequested &&
         Ctl.StopRequested->load(std::memory_order_relaxed)) ||
        (Ctl.DeadlineSec > 0 && Elapsed() >= Ctl.DeadlineSec)) {
      Sh.Interrupt.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> L(Sh.Mu);
      Sh.Cv.notify_all(); // wakes sleeping workers
      return true;
    }
    return false;
  };

  auto WorkerMain = [&](unsigned Wid) {
    Workload::Body Body = W.makeBody();
    Explorer::Options WOpts = Opts;
    WOpts.MaxExecutions = ~0ull; // budget enforced via shared tickets

    // One kit per worker, leased from this thread's kits; each subtree
    // re-seeds its engine and explorer, so their storage is allocated once
    // per thread, not once per call or donated prefix.
    KitLease Lease(WOpts, Body);
    Explorer &Ex = Lease->Ex;
    Engine &Eng = Lease->Eng;

    bool Exhausted = true; // AND-folded over the worker's subtrees
    DecisionTree::Prefix Prefix;
    while (Sh.acquire(Prefix)) {
      Eng.seed(std::move(Prefix));
      while (Ex.hasWork() && !Interrupted()) {
        // Claim a budget ticket before committing to the execution so the
        // global execution count is the same at any worker count.
        uint64_t T = Sh.Tickets.fetch_add(1, std::memory_order_relaxed);
        if (T >= Opts.MaxExecutions)
          break;
        bool Began = Ex.beginExecution();
        (void)Began;
        assert(Began && "hasWork() promised an execution");

        Engine::ExecResult R = Eng.runOne();
        Ex.recordCheck(R.CheckOk);
        Ex.endExecution(R.Run);
        // A StopOnViolation search runs at one worker, whose DFS meets the
        // lex-least violation first.
        if (!R.CheckOk && Opts.StopOnViolation)
          break;

        // Donation on demand: while some worker holds no subtree and has
        // nothing queued for it, hand out up to N of the shallowest untried
        // alternatives, each a maximal subtree (DecisionTree::split). Never
        // at one worker, which is always busy here.
        uint64_t Held = Sh.QueuedTotal.load(std::memory_order_relaxed) +
                        Sh.Busy.load(std::memory_order_relaxed);
        if (Held < N && Ex.splittable())
          Sh.donate(Ex.split(N));
      }
      Exhausted = Exhausted && Ex.summary().Exhausted;
      Sh.finishSubtree();
    }
    Explorer::Summary &Local = Partials[Wid];
    Local = Ex.summary();
    Local.Exhausted = Exhausted;
    Local.Perf.StepsExecuted = Eng.stepsExecuted();
    Local.Perf.StepsLogical = Eng.stepsLogical();
    Local.Perf.CowResumes = Eng.cowResumes();
    Local.Perf.RootRuns = Eng.rootRuns();
  };

  runOnHelpers(N, WorkerMain);

  ExploreResult Res;
  Explorer::Summary &Agg = Res.Sum;
  Agg.Exhausted = true;
  for (const Explorer::Summary &P : Partials) {
    Agg.mergeCore(P);
    Agg.Perf.PeakFrontier =
        std::max(Agg.Perf.PeakFrontier, P.Perf.PeakFrontier);
    Agg.Perf.StepsExecuted += P.Perf.StepsExecuted;
    Agg.Perf.StepsLogical += P.Perf.StepsLogical;
    Agg.Perf.CowResumes += P.Perf.CowResumes;
    Agg.Perf.RootRuns += P.Perf.RootRuns;
  }

  double Wall = Elapsed();
  Agg.Perf.WallSeconds = Wall;
  Agg.Perf.ExecsPerSec =
      Wall > 0 ? static_cast<double>(Agg.Executions) / Wall : 0.0;
  Agg.Perf.PeakQueue = Sh.PeakQueue.load(std::memory_order_relaxed);
  Agg.Perf.Donations = Sh.Donations.load(std::memory_order_relaxed);
  Agg.Perf.Workers = N;
  Res.Interrupted = Sh.Interrupt.load(std::memory_order_relaxed);
  return Res;
}

} // namespace

void compass::sim::runOnHelpers(unsigned N,
                                const std::function<void(unsigned)> &Fn) {
  if (N < 2)
    Fn(0); // takes no helper
  else
    Helpers::get().run(N, Fn);
}

ExploreResult compass::sim::exploreResumable(const Workload &W,
                                             const ExploreControl &Ctl) {
  const Explorer::Options &Opts = W.options();
  // A search that stops at its first violation runs at one worker, whose
  // DFS meets the lex-least violation first.
  return runWorkers(W, Opts.StopOnViolation ? 1 : std::max(1u, Opts.Workers),
                    Ctl);
}

Explorer::Summary compass::sim::explore(const Workload &W) {
  return exploreResumable(W, ExploreControl{}).Sum;
}

Explorer::Summary compass::sim::exploreSerial(const Workload &W) {
  return runWorkers(W, 1, ExploreControl{}).Sum;
}
