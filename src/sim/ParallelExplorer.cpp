//===-- sim/ParallelExplorer.cpp - Multi-worker DFS exploration -----------===//

#include "sim/ParallelExplorer.h"

#include "sim/Engine.h"
#include "support/Choice.h"

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

/// True iff the decision path \p Path is lexicographically below the full
/// sequence \p Best (proper prefixes count as below). A prefix that is NOT
/// below Best cannot contain a violating sequence smaller than Best: every
/// extension of it is lex >= Best.
bool pathLexBelow(const std::vector<DecisionTree::Decision> &Path,
                  const std::vector<unsigned> &Best) {
  size_t N = std::min(Path.size(), Best.size());
  for (size_t I = 0; I != N; ++I)
    if (Path[I].Chosen != Best[I])
      return Path[I].Chosen < Best[I];
  return Path.size() < Best.size();
}

bool seqLexLess(const std::vector<unsigned> &A,
                const std::vector<unsigned> &B) {
  return std::lexicographical_compare(A.begin(), A.end(), B.begin(),
                                      B.end());
}

/// A stable ChoiceSource facade over a worker's *current* Explorer. The
/// machine and scheduler bind their ChoiceSource by reference once at
/// construction, but a worker explores many donated subtrees, each with a
/// fresh Explorer (the decision tree is per-subtree state). The slot lets
/// one persistent machine/scheduler arena serve them all: each subtree
/// re-points the slot and the simulation never re-allocates.
class ChoiceSlot : public ChoiceSource {
public:
  void bind(ChoiceSource &S) { Cur = &S; }
  unsigned choose(unsigned Count, unsigned Limit, ChoiceKind K) override {
    return Cur->choose(Count, Limit, K);
  }
  size_t decisionPosition() const override {
    return Cur->decisionPosition();
  }

private:
  ChoiceSource *Cur = nullptr;
};

/// Per-worker observability counters, sampled for heartbeats. Cache-line
/// padded; all accesses relaxed — these are telemetry, not synchronization.
struct alignas(64) WorkerStats {
  std::atomic<uint64_t> Execs{0};
  std::atomic<uint64_t> Donated{0};
  std::atomic<uint64_t> Frontier{0};
  std::atomic<uint64_t> Depth{0};
};

/// One worker's stealable prefix deque. The owner pushes donation batches
/// to the back and pops from the back (deepest donations first — smallest
/// subtrees, warmest caches); thieves pop from the front, where the
/// shallowest — and hence largest — subtrees sit. A plain mutex per deque
/// is enough: all touches are batched and the common case is uncontended.
struct alignas(64) WorkerDeque {
  std::mutex Mu;
  std::deque<DecisionTree::Prefix> Dq;
};

/// State shared by all workers of one parallel exploration.
///
/// Work distribution is decentralized: each worker owns a deque seeded /
/// refilled by its own donations, and steals from other deques only when
/// its own is empty. Termination is unit-counted: Outstanding tracks
/// prefixes that are queued or in progress; the worker that retires the
/// last unit flips Done.
struct SharedState {
  std::mutex Mu; ///< Guards Done and the sleep/wake protocol only.
  std::condition_variable Cv;
  bool Done = false;

  std::vector<WorkerDeque> Deques;
  std::atomic<uint64_t> Outstanding{0}; ///< Queued + in-progress prefixes.
  std::atomic<uint64_t> QueuedTotal{0}; ///< Prefixes sitting in deques.
  std::atomic<unsigned> Busy{0};        ///< Workers holding a subtree.
  std::atomic<uint64_t> PeakQueue{0};
  std::atomic<uint64_t> Donations{0};

  /// Global execution budget (Options::MaxExecutions), claimed one ticket
  /// per execution so a run performs exactly as many executions at any
  /// worker count. Seeded with the resumed snapshot's executed base so the
  /// budget (and InterruptAtExecs) stay global across segments.
  std::atomic<uint64_t> Tickets{0};

  /// Cooperative interrupt: workers finish their in-flight execution,
  /// drain their tree's unexplored remainder into Drained, and exit.
  std::atomic<bool> Interrupt{false};

  // -- StopOnViolation: shared lex-min violation -----------------------
  /// Cheap pre-check before taking BestMu; set once any violation exists.
  std::atomic<bool> HaveViolation{false};
  std::mutex BestMu;
  std::vector<unsigned> Best; // lex-min violating sequence so far

  // -- Checkpoint drain -------------------------------------------------
  std::mutex DrainMu;
  std::vector<DecisionTree::Prefix> Drained;

  explicit SharedState(unsigned Workers) : Deques(Workers) {}

  /// Lowers the shared best violation to \p Seq if it is lex-smaller.
  void offerViolation(std::vector<unsigned> Seq) {
    std::lock_guard<std::mutex> L(BestMu);
    if (!HaveViolation.load(std::memory_order_relaxed) ||
        seqLexLess(Seq, Best))
      Best = std::move(Seq);
    HaveViolation.store(true, std::memory_order_relaxed);
  }

  /// True while work whose decision path starts with \p Path could still
  /// contain a violation lex-smaller than the current best (or no
  /// violation exists yet). Callers pre-check HaveViolation.
  bool mayImprove(const std::vector<DecisionTree::Decision> &Path) {
    std::lock_guard<std::mutex> L(BestMu);
    return pathLexBelow(Path, Best);
  }

  void addDrained(std::vector<DecisionTree::Prefix> Prefixes) {
    if (Prefixes.empty())
      return;
    std::lock_guard<std::mutex> L(DrainMu);
    for (DecisionTree::Prefix &P : Prefixes)
      Drained.push_back(std::move(P));
  }

  /// Appends \p Prefixes to worker \p Wid's deque and wakes sleepers. The
  /// notify is taken under Mu unconditionally, which makes the sleep/wake
  /// race-free: a would-be sleeper re-checks QueuedTotal under Mu before
  /// waiting, so it either sees this batch or receives this notify.
  void pushBatch(unsigned Wid, std::vector<DecisionTree::Prefix> Prefixes,
                 bool CountAsDonation) {
    if (Prefixes.empty())
      return;
    uint64_t K = Prefixes.size();
    Outstanding.fetch_add(K, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> L(Deques[Wid].Mu);
      for (DecisionTree::Prefix &P : Prefixes)
        Deques[Wid].Dq.push_back(std::move(P));
    }
    uint64_t Q = QueuedTotal.fetch_add(K, std::memory_order_relaxed) + K;
    uint64_t Pk = PeakQueue.load(std::memory_order_relaxed);
    while (Q > Pk &&
           !PeakQueue.compare_exchange_weak(Pk, Q,
                                            std::memory_order_relaxed))
      ;
    if (CountAsDonation)
      Donations.fetch_add(K, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> L(Mu);
      Cv.notify_all();
    }
  }

  /// Retires one work unit (finished subtree or discarded prefix); the
  /// last retirement terminates the exploration.
  void retireUnit() {
    if (Outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> L(Mu);
      Done = true;
      Cv.notify_all();
    }
  }

  enum class Take { Got, Retry, None };

  /// One scan over the deques: the worker's own back first (LIFO keeps it
  /// on the deepest, cache-warmest donation), then other workers' fronts
  /// (FIFO steals the shallowest = largest subtree). Lex-dead prefixes
  /// are retired on the spot.
  Take tryTakeOne(unsigned Wid, DecisionTree::Prefix &Out,
                  bool StopOnViolation) {
    unsigned N = static_cast<unsigned>(Deques.size());
    for (unsigned K = 0; K != N; ++K) {
      unsigned V = (Wid + K) % N;
      WorkerDeque &D = Deques[V];
      {
        std::lock_guard<std::mutex> L(D.Mu);
        if (D.Dq.empty())
          continue;
        if (V == Wid) {
          Out = std::move(D.Dq.back());
          D.Dq.pop_back();
        } else {
          Out = std::move(D.Dq.front());
          D.Dq.pop_front();
        }
      }
      QueuedTotal.fetch_sub(1, std::memory_order_relaxed);
      if (StopOnViolation &&
          HaveViolation.load(std::memory_order_relaxed) &&
          !mayImprove(Out.Path)) {
        retireUnit(); // cannot contain a violation below the best: dead
        return Take::Retry;
      }
      Busy.fetch_add(1, std::memory_order_relaxed);
      return Take::Got;
    }
    return Take::None;
  }

  /// Blocks until a prefix is available (true) or the exploration is over
  /// (false) — either all units retired or an interrupt was raised.
  bool acquire(unsigned Wid, DecisionTree::Prefix &Out,
               bool StopOnViolation) {
    for (;;) {
      if (!Interrupt.load(std::memory_order_relaxed)) {
        Take T = tryTakeOne(Wid, Out, StopOnViolation);
        if (T == Take::Got)
          return true;
        if (T == Take::Retry)
          continue;
      }
      std::unique_lock<std::mutex> L(Mu);
      if (Done)
        return false;
      if (Interrupt.load(std::memory_order_relaxed)) {
        // Leave the queued prefixes in place: they join the snapshot
        // frontier after the workers exit.
        Done = true;
        Cv.notify_all();
        return false;
      }
      if (QueuedTotal.load(std::memory_order_relaxed) > 0)
        continue; // a batch landed between the scan and the lock
      Cv.wait(L);
    }
  }

  /// Marks the worker's current subtree finished and retires its unit.
  void finishSubtree() {
    Busy.fetch_sub(1, std::memory_order_relaxed);
    retireUnit();
  }
};

/// The process-wide parked helper threads behind every multi-worker call
/// (see the file comment of sim/ParallelExplorer.h).
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

/// The one exploration loop behind exploreResumable, explore and
/// exploreSerial: \p N workers, of which the calling thread is worker 0.
ExploreResult runWorkers(const Workload &W, unsigned N,
                         const ExploreControl &Ctl,
                         const ExplorationSnapshot *Resume) {
  const Explorer::Options &Opts = W.options();
  using Clock = std::chrono::steady_clock;
  auto Elapsed = [Start = Clock::now()] {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  };

  SharedState Sh(N);
  {
    // Seed the deques round-robin with the initial frontier: the root
    // prefix, or a resumed snapshot's pinned subtrees.
    std::vector<std::vector<DecisionTree::Prefix>> Seed(N);
    if (Resume && !Resume->Frontier.empty()) {
      for (size_t I = 0; I != Resume->Frontier.size(); ++I)
        Seed[I % N].push_back(Resume->Frontier[I]);
      Sh.Tickets.store(Resume->Partial.Executions,
                       std::memory_order_relaxed);
    } else {
      Seed[0].push_back(DecisionTree::Prefix{}); // the root subtree
    }
    for (unsigned I = 0; I != N; ++I)
      Sh.pushBatch(I, std::move(Seed[I]), /*CountAsDonation=*/false);
  }
  if (Resume && Resume->Partial.HasViolation)
    Sh.offerViolation(Resume->Partial.firstViolationDecisions());

  // Per-worker partial summaries, merged in worker order at the end (all
  // core fields merge commutatively, so the order is immaterial — it just
  // keeps the aggregation obviously deterministic).
  std::vector<Explorer::Summary> Partials(N);
  std::vector<uint64_t> PeakFrontiers(N, 0);
  std::vector<WorkerStats> Stats(N);

  // Heartbeats come from whichever worker finds one due; the try-lock
  // keeps them one at a time and the relaxed pre-check keeps the lock
  // off the per-execution path.
  const bool NeedHeartbeat =
      Ctl.HeartbeatIntervalSec > 0 && static_cast<bool>(Ctl.OnHeartbeat);
  const bool NeedClock = NeedHeartbeat || Ctl.DeadlineSec > 0;
  std::mutex HbMu;
  std::atomic<double> LastHeartbeat{0};
  auto Heartbeat = [&](double Wall, uint64_t Execs) {
    if (Wall - LastHeartbeat.load(std::memory_order_relaxed) <
        Ctl.HeartbeatIntervalSec)
      return;
    std::unique_lock<std::mutex> L(HbMu, std::try_to_lock);
    if (!L.owns_lock() || Wall - LastHeartbeat.load(std::memory_order_relaxed) <
                              Ctl.HeartbeatIntervalSec)
      return;
    LastHeartbeat.store(Wall, std::memory_order_relaxed);
    ExploreHeartbeat Hb;
    Hb.WallSeconds = Wall;
    Hb.Executions = Execs;
    Hb.ExecsPerSec = Wall > 0 ? Execs / Wall : 0.0;
    Hb.QueueSize = Sh.QueuedTotal.load(std::memory_order_relaxed);
    Hb.BusyWorkers = Sh.Busy.load(std::memory_order_relaxed);
    Hb.Workers = N;
    Hb.Donations = Sh.Donations.load(std::memory_order_relaxed);
    for (const WorkerStats &St : Stats)
      Hb.PerWorker.push_back({St.Execs.load(std::memory_order_relaxed),
                              St.Donated.load(std::memory_order_relaxed),
                              St.Frontier.load(std::memory_order_relaxed),
                              St.Depth.load(std::memory_order_relaxed)});
    Ctl.OnHeartbeat(Hb);
  };

  // Checked by every worker before each execution: true once the
  // exploration is interrupted, raising the interrupt when one of the
  // external controls trips; otherwise emits a heartbeat when one is due.
  auto Interrupted = [&] {
    if (Sh.Interrupt.load(std::memory_order_relaxed))
      return true;
    double Wall = NeedClock ? Elapsed() : 0;
    uint64_t Execs = std::min<uint64_t>(
        Sh.Tickets.load(std::memory_order_relaxed), Opts.MaxExecutions);
    if ((Ctl.StopRequested &&
         Ctl.StopRequested->load(std::memory_order_relaxed)) ||
        (Ctl.DeadlineSec > 0 && Wall >= Ctl.DeadlineSec) ||
        (Ctl.InterruptAtExecs > 0 && Execs >= Ctl.InterruptAtExecs)) {
      Sh.Interrupt.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> L(Sh.Mu);
      Sh.Cv.notify_all(); // wakes sleeping workers
      return true;
    }
    if (NeedHeartbeat)
      Heartbeat(Wall, Execs);
    return false;
  };

  auto WorkerMain = [&](unsigned Wid) {
    Workload::Body Body = W.makeBody();
    Explorer::Options WOpts = Opts;
    WOpts.MaxExecutions = ~0ull; // budget enforced via shared tickets

    Explorer::Summary &Local = Partials[Wid];
    Local.Exhausted = true; // AND-folded over the worker's subtrees
    WorkerStats &St = Stats[Wid];

    // One persistent simulation arena per worker: machine and scheduler
    // outlive the subtrees (reset() rewinds watermarks without freeing),
    // so steady-state allocation happens once per worker, not once per
    // donated prefix — and the per-subtree Engine runs every execution
    // through the copy-on-write fast path.
    ChoiceSlot Choices;
    rmc::Machine M(Choices);
    Scheduler S(M, Choices);
    S.setPreemptionBound(Opts.PreemptionBound);

    DecisionTree::Prefix Prefix;
    while (Sh.acquire(Wid, Prefix, Opts.StopOnViolation)) {
      Explorer Ex(WOpts, std::move(Prefix));
      Choices.bind(Ex);
      S.setReduction(Ex.reduction());
      Engine Eng(Ex, M, S, Body);
      for (;;) {
        if (Interrupted()) {
          // Cooperative checkpoint: convert this subtree's unexplored
          // remainder into pinned prefixes for the snapshot frontier.
          // The executed share stays in Ex's summary (Exhausted set).
          Sh.addDrained(Ex.drainFrontier());
          break;
        }
        if (Opts.StopOnViolation &&
            Sh.HaveViolation.load(std::memory_order_relaxed) &&
            !Sh.mayImprove(Ex.currentTrace()))
          break; // pending path lex >= best violation: nothing to gain
        if (!Ex.hasWork())
          break;
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
        St.Execs.fetch_add(1, std::memory_order_relaxed);
        St.Frontier.store(Ex.frontierSize(), std::memory_order_relaxed);
        St.Depth.store(Ex.currentDepth(), std::memory_order_relaxed);
        if (!R.CheckOk && Opts.StopOnViolation) {
          // DFS yields each subtree's lex-least violation first, so this
          // subtree is finished; publish the find and let the search
          // continue only where a lex-smaller violation could hide.
          Sh.offerViolation(Ex.summary().firstViolationDecisions());
          break;
        }

        // Donation on demand: while some worker holds no subtree and has
        // nothing queued for it, hand out up to N of the shallowest untried
        // alternatives, each a maximal subtree (DecisionTree::split). Never
        // at one worker, which is always busy here.
        uint64_t Held = Sh.QueuedTotal.load(std::memory_order_relaxed) +
                        Sh.Busy.load(std::memory_order_relaxed);
        if (Held < N && Ex.splittable()) {
          std::vector<DecisionTree::Prefix> Don = Ex.split(N);
          St.Donated.fetch_add(Don.size(), std::memory_order_relaxed);
          Sh.pushBatch(Wid, std::move(Don), /*CountAsDonation=*/true);
        }
      }
      PeakFrontiers[Wid] =
          std::max(PeakFrontiers[Wid], Ex.summary().Perf.PeakFrontier);
      Local.mergeCore(Ex.summary()); // AND-folds the subtree's Exhausted bit
      Local.Perf.StepsExecuted += Eng.stepsExecuted();
      Local.Perf.StepsLogical += Eng.stepsLogical();
      Local.Perf.CowResumes += Eng.cowResumes();
      Local.Perf.RootRuns += Eng.rootRuns();
      Sh.finishSubtree();
    }
  };

  if (N == 1)
    WorkerMain(0); // a one-worker call takes no helper
  else
    Helpers::get().run(N, WorkerMain);

  ExploreResult Res;

  Explorer::Summary Agg;
  Agg.Exhausted = true;
  if (Resume)
    Agg.mergeCore(Resume->Partial);
  for (const Explorer::Summary &P : Partials) {
    Agg.mergeCore(P);
    Agg.Perf.StepsExecuted += P.Perf.StepsExecuted;
    Agg.Perf.StepsLogical += P.Perf.StepsLogical;
    Agg.Perf.CowResumes += P.Perf.CowResumes;
    Agg.Perf.RootRuns += P.Perf.RootRuns;
  }

  double Wall = Elapsed();
  Agg.Perf.WallSeconds = Wall;
  Agg.Perf.ExecsPerSec =
      Wall > 0 ? static_cast<double>(Agg.Executions) / Wall : 0.0;
  for (uint64_t Pf : PeakFrontiers)
    Agg.Perf.PeakFrontier = std::max(Agg.Perf.PeakFrontier, Pf);
  Agg.Perf.PeakQueue = Sh.PeakQueue.load(std::memory_order_relaxed);
  Agg.Perf.Donations = Sh.Donations.load(std::memory_order_relaxed);
  Agg.Perf.Workers = N;

  if (Sh.Interrupt.load(std::memory_order_relaxed)) {
    // Frontier = every worker's drained remainder plus the prefixes still
    // sitting in the deques. Empty means the interrupt raced with natural
    // completion: the run actually finished.
    Res.Snapshot.Frontier = std::move(Sh.Drained);
    for (WorkerDeque &D : Sh.Deques)
      for (DecisionTree::Prefix &P : D.Dq)
        Res.Snapshot.Frontier.push_back(std::move(P));
    Res.Interrupted = !Res.Snapshot.Frontier.empty();
    if (Res.Interrupted)
      Res.Snapshot.Partial = Agg;
    else
      Res.Snapshot = ExplorationSnapshot{};
  }
  Res.Sum = std::move(Agg);
  return Res;
}

} // namespace

ExploreResult compass::sim::exploreResumable(const Workload &W,
                                             const ExploreControl &Ctl,
                                             const ExplorationSnapshot *Resume) {
  return runWorkers(W, std::max(1u, W.options().Workers), Ctl, Resume);
}

Explorer::Summary compass::sim::explore(const Workload &W) {
  return exploreResumable(W, ExploreControl{}).Sum;
}

Explorer::Summary compass::sim::exploreSerial(const Workload &W) {
  return runWorkers(W, 1, ExploreControl{}, nullptr).Sum;
}
