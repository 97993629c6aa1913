//===-- tests/SimTestUtil.h - Shared helpers for exploration tests -*- C++ -*-===//

#ifndef COMPASS_TESTS_SIMTESTUTIL_H
#define COMPASS_TESTS_SIMTESTUTIL_H

#include "check/Conformance.h"
#include "check/Harness.h"
#include "lib/Container.h"
#include "sim/Workload.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace compass::test {

/// Explores \p W (serial or parallel per its options) and fails the current
/// test if any execution violates the workload's check. On failure the
/// report carries everything needed to reproduce without re-exploring:
///  * the reduction mode, preemption bound and worker count (the
///    exploration's configuration),
///  * the first counterexample's decision trace, pretty-printed (tag +
///    arity per decision),
///  * a copy-pasteable `sim::replay(W, {...});` call for that trace, which
///    is also replayed on the spot to confirm it reproduces the failure.
inline sim::Explorer::Summary
exploreExpectNoViolations(const sim::Workload &W,
                          const char *WorkloadName = "W") {
  sim::Explorer::Summary Sum = sim::explore(W);
  if (Sum.Violations != 0) {
    sim::ReplayResult RR = sim::replay(W, Sum.firstViolationDecisions());
    ADD_FAILURE() << Sum.Violations
                  << " violating execution(s) [reduction="
                  << sim::reductionModeName(W.options().Reduction)
                  << " preemption-bound=" << W.options().PreemptionBound
                  << " workers=" << W.options().Workers
                  << "]; first counterexample:\n"
                  << sim::Explorer::formatTrace(Sum.FirstViolation)
                  << "reproduce with:\n  "
                  << sim::formatReplayCall(Sum.firstViolationDecisions(),
                                           WorkloadName)
                  << "\nreplay reproduces the failing check: "
                  << (RR.CheckOk ? "NO (check passed on replay!)" : "yes");
  }
  return Sum;
}

/// Makes \p B copy-on-write eligible by saving and restoring \p Sinks,
/// the values its threads write outside the machine, at every snapshot
/// (Workload::Body::CowSave).
inline void saveSinks(sim::Workload::Body &B,
                      std::vector<std::shared_ptr<rmc::Value>> Sinks) {
  using Saved = std::vector<rmc::Value>;
  B.CowSave = [Sinks](std::shared_ptr<void> &Slot) {
    if (!Slot)
      Slot = std::make_shared<Saved>();
    auto &V = *std::static_pointer_cast<Saved>(Slot);
    V.resize(Sinks.size());
    for (size_t I = 0; I != Sinks.size(); ++I)
      V[I] = *Sinks[I];
  };
  B.CowRestore = [Sinks](const std::shared_ptr<void> &Slot) {
    const auto &V = *std::static_pointer_cast<Saved>(Slot);
    for (size_t I = 0; I != Sinks.size(); ++I)
      *Sinks[I] = V[I];
  };
}

/// Explores each scenario runSweep(\p O) draws (its seed, per-lib count,
/// libraries, generator, cap and reduction; all libraries when O.Libs is
/// empty) at 1, 2 and 4 workers, splitting each tree between the workers.
/// An exhausted tree's summary core must be bit-identical at every worker
/// count; a truncated one's execution count must be (the budget's
/// tickets). Returns the 1-worker summaries in sweep order.
inline std::vector<sim::Explorer::Summary>
expectSweepScenariosAgreeAcrossWorkers(const check::SweepOptions &O) {
  std::vector<check::Lib> Libs = O.Libs;
  if (Libs.empty())
    Libs.assign(check::allLibs(), check::allLibs() + check::NumLibs);
  std::vector<sim::Explorer::Summary> Out;
  for (check::Lib L : Libs)
    for (unsigned I = 0; I != O.ScenariosPerLib; ++I) {
      check::Scenario S =
          check::generateScenario(L, check::scenarioSeed(O.Seed, L, I), O.Gen);
      auto Explore = [&](unsigned Workers) {
        return sim::explore(check::makeWorkload(
            S, check::Mutation::None,
            check::scenarioOptions(S, O.MaxExecutionsPerScenario, Workers,
                                   O.Reduction)));
      };
      sim::Explorer::Summary S1 = Explore(1);
      for (unsigned Workers : {2u, 4u}) {
        sim::Explorer::Summary SN = Explore(Workers);
        const std::string Where = std::string(check::libName(L)) + " #" +
                                  std::to_string(I) + " " + S.str() +
                                  " at " + std::to_string(Workers) +
                                  " workers";
        EXPECT_EQ(SN.Exhausted, S1.Exhausted) << Where;
        EXPECT_EQ(SN.Executions, S1.Executions) << Where;
        if (S1.Exhausted) {
          EXPECT_TRUE(S1.coreEquals(SN))
              << Where << "\nserial:   " << S1.str()
              << "\nparallel: " << SN.str();
        }
      }
      Out.push_back(std::move(S1));
    }
  return Out;
}

/// Enqueues each value of \p Vs in order.
inline sim::Task<void> enqueuerThread(sim::Env &E, lib::SimQueue &Q,
                                      std::vector<rmc::Value> Vs) {
  for (rmc::Value V : Vs) {
    auto T = Q.enqueue(E, V);
    co_await T;
  }
}

/// Dequeues \p N times (non-blocking), recording results (EmptyVal
/// included).
inline sim::Task<void> dequeuerThread(sim::Env &E, lib::SimQueue &Q,
                                      unsigned N,
                                      std::vector<rmc::Value> *Out) {
  for (unsigned I = 0; I != N; ++I) {
    auto T = Q.dequeue(E);
    Out->push_back(co_await T);
  }
}

/// Pushes each value of \p Vs in order.
inline sim::Task<void> pusherThread(sim::Env &E, lib::SimStack &S,
                                    std::vector<rmc::Value> Vs) {
  for (rmc::Value V : Vs) {
    auto T = S.push(E, V);
    co_await T;
  }
}

/// Pops \p N times (non-blocking), recording results.
inline sim::Task<void> popperThread(sim::Env &E, lib::SimStack &S,
                                    unsigned N,
                                    std::vector<rmc::Value> *Out) {
  for (unsigned I = 0; I != N; ++I) {
    auto T = S.pop(E);
    Out->push_back(co_await T);
  }
}

} // namespace compass::test

#endif // COMPASS_TESTS_SIMTESTUTIL_H
