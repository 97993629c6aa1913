//===-- examples/quickstart.cpp - Five-minute tour ---------------------====//
//
// The shortest useful tour of compass-cxx's two halves:
//
//  1. the *native* library: production concurrent containers on
//     std::atomic (use these in your application);
//  2. the *verification* stack: the same algorithms on the simulated RC11
//     machine, model-checked against the paper's event-graph specs (use
//     this to check your own variants).
//
// Build & run:  ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "lib/MsQueue.h"
#include "native/MsQueue.h"
#include "sim/Workload.h"
#include "spec/Consistency.h"

#include <cstdio>
#include <thread>
#include <vector>

using namespace compass;

namespace {

/// Part 1: the native queue, as an application would use it.
void nativeQuickstart() {
  std::printf("== native: MPMC Michael-Scott queue on std::atomic ==\n");
  native::MsQueue<uint64_t> Q;

  std::vector<std::thread> Producers;
  for (unsigned P = 0; P != 2; ++P)
    Producers.emplace_back([&Q, P] {
      for (uint64_t I = 1; I <= 3; ++I)
        Q.enqueue(P * 100 + I);
    });
  for (auto &T : Producers)
    T.join();

  uint64_t Sum = 0, N = 0;
  while (auto V = Q.dequeue()) {
    Sum += *V;
    ++N;
  }
  std::printf("dequeued %llu items, sum %llu\n\n", (unsigned long long)N,
              (unsigned long long)Sum);
}

/// Part 2's simulated threads: a producer and a consumer on the RC11
/// machine. `co_await` marks every memory access — the points where the
/// model checker interleaves threads and picks which write a load reads.
sim::Task<void> producer(sim::Env &E, lib::MsQueue &Q) {
  for (rmc::Value V : {1, 2}) {
    auto T = Q.enqueue(E, V);
    co_await T;
  }
}

sim::Task<void> consumer(sim::Env &E, lib::MsQueue &Q, rmc::Value *Out) {
  auto T = Q.dequeue(E);
  *Out = co_await T; // May be graph::EmptyVal: the queue looked empty.
}

void verifiedQuickstart() {
  std::printf("== verification: the same algorithm, model-checked ==\n");

  sim::Explorer::Options Opts; // Defaults: exhaustive DFS.
  rmc::Value Got = 0;
  uint64_t Violations = 0;

  std::unique_ptr<spec::SpecMonitor> Mon;
  std::unique_ptr<lib::MsQueue> Q;
  auto Summary = sim::explore(
      Opts,
      [&](rmc::Machine &M, sim::Scheduler &S) {
        Mon = std::make_unique<spec::SpecMonitor>();
        Q = std::make_unique<lib::MsQueue>(M, *Mon, "q");
        sim::Env &E0 = S.newThread();
        S.start(E0, producer(E0, *Q));
        sim::Env &E1 = S.newThread();
        S.start(E1, consumer(E1, *Q, &Got));
      },
      [&](rmc::Machine &, sim::Scheduler &, sim::Scheduler::RunResult R) {
        if (R != sim::Scheduler::RunResult::Done)
          return;
        // The paper's QueueConsistent (Figure 2): FIFO, MATCHES,
        // EMPDEQ... checked on the event graph of this execution.
        if (!spec::checkConsistent(Mon->graph(), Q->objId(),
                                   spec::SeqSpec::Queue)
                 .ok())
          ++Violations;
      });

  std::printf("explored %llu executions (%s), consistency violations: "
              "%llu\n",
              (unsigned long long)Summary.Executions,
              Summary.Exhausted ? "exhaustive" : "truncated",
              (unsigned long long)Violations);
  std::printf("every interleaving and every stale-read choice of the RC11 "
              "model was covered.\n");
}

} // namespace

int main() {
  nativeQuickstart();
  verifiedQuickstart();
  return 0;
}
