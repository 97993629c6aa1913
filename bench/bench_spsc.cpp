//===-- bench/bench_spsc.cpp - Experiment E3 (Section 3.2's SPSC client) ---===//
//
// Regenerates the single-producer single-consumer client result of
// Section 3.2: the producer enqueues a_p[0..n) in order, the consumer
// dequeues n elements (blocking); in *every* explored execution the
// consumer's array equals the producer's — the FIFO property the paper
// derives from the LAT_hb queue specs by building an SPSC protocol.
//
// Expected shape: zero order violations at every n; exploration exhausts
// (within the preemption bound).
//
//===----------------------------------------------------------------------===//

#include "ExperimentUtil.h"
#include "clients/Spsc.h"
#include "lib/SpscRing.h"
#include "spec/Consistency.h"

using namespace compass;
using namespace compass::bench;
using namespace compass::clients;
using namespace compass::rmc;
using namespace compass::sim;

int main() {
  std::printf("E3: SPSC client (paper Section 3.2)\n");
  std::printf("producer enqueues [1..n] in order; consumer blocking-"
              "dequeues n values\n\n");

  Table T({"n", "preemption bound", "executions", "checked",
           "order violations", "verdict"});

  bool AllOk = true;
  for (unsigned N : {2u, 3u, 4u}) {
    Explorer::Options Opts;
    Opts.PreemptionBound = 3;
    Opts.MaxExecutions = 250'000;

    std::vector<Value> Items;
    for (unsigned I = 1; I <= N; ++I)
      Items.push_back(I);

    std::unique_ptr<spec::SpecMonitor> Mon;
    std::unique_ptr<lib::MsQueue> Q;
    SpscOutcome Out;
    uint64_t Checked = 0, Violations = 0;

    auto Sum = explore(
        Opts,
        [&](Machine &M, Scheduler &S) {
          Mon = std::make_unique<spec::SpecMonitor>();
          Q = std::make_unique<lib::MsQueue>(M, *Mon, "q");
          Out = SpscOutcome();
          setupSpsc(M, S, *Q, Items, Out);
        },
        [&](Machine &, Scheduler &, Scheduler::RunResult R) {
          if (R != Scheduler::RunResult::Done)
            return;
          ++Checked;
          if (Out.Consumed != Items)
            ++Violations;
        });

    AllOk &= Violations == 0 && Checked > 0;
    T.addRow({fmtU64(N), "3", fmtU64(Sum.Executions), fmtU64(Checked),
              fmtViolations(Violations),
              Violations == 0 ? "FIFO end-to-end" : "BROKEN"});
  }
  T.print();

  // The specialized SPSC structure: a Lamport ring (no RMWs at all) —
  // QueueConsistent, FIFO end-to-end, and race-freedom of the na slot
  // handoff across wrap-around reuse, over all executions.
  std::printf("\nSPSC ring buffer (CAS-free; slots are non-atomic cells "
              "handed off via\nrelease/acquire indices):\n");
  Table T2({"capacity", "items", "executions", "order violations",
            "consistency", "races"});
  for (unsigned Cap : {1u, 2u}) {
    Explorer::Options Opts;
    Opts.PreemptionBound = 3;
    Opts.MaxExecutions = 300'000;
    std::vector<Value> Items = {11, 22, 33};

    std::unique_ptr<spec::SpecMonitor> Mon;
    std::unique_ptr<lib::SpscRing> Q;
    std::vector<Value> Got;
    uint64_t OrderBad = 0, GraphBad = 0;

    struct Body {
      static sim::Task<void> produce(sim::Env &E, lib::SpscRing &Q,
                                     std::vector<Value> Vs) {
        for (Value V : Vs) {
          auto T = Q.enqueueBlocking(E, V);
          co_await T;
        }
      }
      static sim::Task<void> consume(sim::Env &E, lib::SpscRing &Q,
                                     size_t N, std::vector<Value> *Out) {
        for (size_t I = 0; I != N; ++I) {
          auto T = Q.dequeueBlocking(E);
          Out->push_back(co_await T);
        }
      }
    };
    auto Sum = explore(
        Opts,
        [&](Machine &M, Scheduler &S) {
          Mon = std::make_unique<spec::SpecMonitor>();
          Q = std::make_unique<lib::SpscRing>(M, *Mon, "r", Cap);
          Got.clear();
          sim::Env &E0 = S.newThread();
          S.start(E0, Body::produce(E0, *Q, Items));
          sim::Env &E1 = S.newThread();
          S.start(E1, Body::consume(E1, *Q, Items.size(), &Got));
        },
        [&](Machine &, Scheduler &, Scheduler::RunResult R) {
          if (R != Scheduler::RunResult::Done)
            return;
          if (Got != Items)
            ++OrderBad;
          if (!spec::checkConsistent(Mon->graph(), Q->objId(),
                                     spec::SeqSpec::Queue)
                   .ok())
            ++GraphBad;
        });
    AllOk &= OrderBad == 0 && GraphBad == 0 && Sum.Races == 0;
    T2.addRow({fmtU64(Cap), fmtU64(Items.size()), fmtU64(Sum.Executions),
               fmtViolations(OrderBad), GraphBad ? "VIOLATED" : "holds",
               fmtU64(Sum.Races)});
  }
  T2.print();

  std::printf("\nPaper claim reproduced: a_c == a_p in every execution. "
              "%s\n",
              AllOk ? "ALL ROWS AS EXPECTED." : "DEVIATIONS FOUND!");
  return AllOk ? 0 : 1;
}
