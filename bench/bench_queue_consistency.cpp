//===-- bench/bench_queue_consistency.cpp - Experiment E2 (Figure 2) -------===//
//
// Regenerates the paper's queue-specification results (Figure 2, Sections
// 3.1-3.2): every explored execution of every queue implementation is
// checked against
//
//  * QueueConsistent — the graph-based LAT_hb spec (QUEUE-MATCHES,
//    QUEUE-FIFO, QUEUE-EMPDEQ, so ⊆ lhb, injectivity), and
//  * the abstract-state replay — the LAT_abs_hb strengthening.
//
// Expected shape (the paper's satisfiability claims):
//  * Michael-Scott (release/acquire) satisfies both;
//  * the relaxed Herlihy-Wing queue satisfies the graph spec but
//    *violates* the abstract-state spec on cross-thread enqueue workloads
//    ("extremely difficult to construct the abstract state ... would
//    require future-dependent knowledge", Section 3.2);
//  * the locked queue satisfies even the strict variants.
//
//===----------------------------------------------------------------------===//

#include "ExperimentUtil.h"
#include "spec/Consistency.h"

#include <cinttypes>

using namespace compass;
using namespace compass::bench;
using namespace compass::rmc;
using namespace compass::sim;
using namespace compass::spec;

namespace {

struct QcRow {
  uint64_t Executions = 0;
  uint64_t Checked = 0;
  uint64_t GraphViolations = 0;
  uint64_t AbsViolations = 0;
  uint64_t StrictViolations = 0;
};

QcRow runWorkload(QueueImpl Impl,
                  std::vector<std::vector<Value>> Producers,
                  std::vector<unsigned> Consumers, unsigned Preemptions) {
  Explorer::Options Opts;
  Opts.PreemptionBound = Preemptions;
  Opts.MaxExecutions = 250'000;

  QcRow Row;
  std::unique_ptr<spec::SpecMonitor> Mon;
  std::unique_ptr<lib::SimQueue> Q;
  std::vector<std::vector<Value>> Got;

  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Mon = std::make_unique<spec::SpecMonitor>();
        Q = makeQueue(Impl, M, *Mon);
        Got.assign(Consumers.size(), {});
        for (auto &Vs : Producers) {
          sim::Env &E = S.newThread();
          S.start(E, enqueuer(E, *Q, Vs));
        }
        for (size_t I = 0; I != Consumers.size(); ++I) {
          sim::Env &E = S.newThread();
          S.start(E, dequeuer(E, *Q, Consumers[I], &Got[I]));
        }
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        if (R != Scheduler::RunResult::Done)
          return;
        ++Row.Checked;
        if (!checkConsistent(Mon->graph(), Q->objId(), SeqSpec::Queue).ok())
          ++Row.GraphViolations;
        if (!checkAbsState(Mon->graph(), Q->objId(), SeqSpec::Queue).ok())
          ++Row.AbsViolations;
        ContainerCheckOptions Strict;
        Strict.StrictEmpty = true;
        AbsStateOptions StrictAbs;
        StrictAbs.RequireTrueEmpty = true;
        if (!checkConsistent(Mon->graph(), Q->objId(), SeqSpec::Queue, Strict)
                 .ok() ||
            !checkAbsState(Mon->graph(), Q->objId(), SeqSpec::Queue,
                           StrictAbs)
                 .ok())
          ++Row.StrictViolations;
      });
  Row.Executions = Sum.Executions;
  return Row;
}

} // namespace

int main() {
  std::printf("E2: queue implementations vs. spec strengths "
              "(paper Figure 2, Sections 3.1-3.2)\n\n");

  struct Workload {
    std::vector<std::vector<Value>> Producers;
    std::vector<unsigned> Consumers;
    unsigned Preemptions;
  };
  const Workload Workloads[] = {
      {{{1}}, {1}, ~0u},            // Fully exhaustive micro.
      {{{1, 2}}, {2}, 3},           // Program-ordered enqueues.
      {{{1}, {2}}, {2}, 2},         // Cross-thread enqueues.
      {{{1, 2}}, {1, 1}, 2},        // Competing dequeuers.
  };

  Table T({"queue", "workload", "executions", "checked",
           "LAT_hb (graph)", "LAT_abs_hb (state)", "strict (SC-only)"});

  struct Expect {
    bool GraphOk, AbsOk;
  };
  bool ShapeOk = true;
  uint64_t HwAbsViolationsTotal = 0;

  for (QueueImpl Impl : {QueueImpl::Ms, QueueImpl::Hw, QueueImpl::Locked}) {
    for (const Workload &W : Workloads) {
      QcRow Row = runWorkload(Impl, W.Producers, W.Consumers,
                              W.Preemptions);
      if (Impl == QueueImpl::Hw)
        HwAbsViolationsTotal += Row.AbsViolations;
      ShapeOk &= Row.GraphViolations == 0;
      if (Impl != QueueImpl::Hw)
        ShapeOk &= Row.AbsViolations == 0;
      if (Impl == QueueImpl::Locked)
        ShapeOk &= Row.StrictViolations == 0;
      T.addRow({queueImplName(Impl),
                workloadName(W.Producers, W.Consumers, "enq", "deq"),
                fmtU64(Row.Executions), fmtU64(Row.Checked),
                Row.GraphViolations ? "VIOLATED" : "holds",
                Row.AbsViolations
                    ? "violated (" + fmtU64(Row.AbsViolations) + "x)"
                    : "holds",
                Row.StrictViolations ? "violated" : "holds"});
    }
  }
  T.print();

  ShapeOk &= HwAbsViolationsTotal > 0;
  std::printf("\nPaper claims reproduced:\n"
              "  * all implementations satisfy the graph-based LAT_hb "
              "QueueConsistent spec;\n"
              "  * Herlihy-Wing fails LAT_abs_hb (%" PRIu64
              " executions with abstract-state violations)\n"
              "    while Michael-Scott satisfies it — the Section 3.2 "
              "separation;\n"
              "  * the locked queue satisfies even the strict SC-level "
              "conditions.\n%s\n",
              (uint64_t)HwAbsViolationsTotal,
              ShapeOk ? "ALL ROWS AS EXPECTED." : "DEVIATIONS FOUND!");
  return ShapeOk ? 0 : 1;
}
