//===-- tests/SimTestUtil.h - Shared helpers for exploration tests -*- C++ -*-===//

#ifndef COMPASS_TESTS_SIMTESTUTIL_H
#define COMPASS_TESTS_SIMTESTUTIL_H

#include "lib/Container.h"
#include "sim/Workload.h"

#include <gtest/gtest.h>

#include <memory>
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
