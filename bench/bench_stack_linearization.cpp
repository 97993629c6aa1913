//===-- bench/bench_stack_linearization.cpp - Experiment E4 (Figure 4) -----===//
//
// Regenerates the LAT_hist_hb stack result of Section 3.3 / Figure 4: for
// every explored execution of the relaxed Treiber stack (release-CAS
// pushes, acquire-CAS pops), a total order `to` exists that respects lhb
// and is interpretable by the sequential stack semantics — the
// linearizable-history spec. Also reports the LAT_hb StackConsistent
// check and the abstract-state replay, and the search effort.
//
// Expected shape: a witness linearization exists for every history; the
// LAT_hb conditions hold throughout.
//
//===----------------------------------------------------------------------===//

#include "ExperimentUtil.h"
#include "spec/Consistency.h"
#include "spec/Linearization.h"

using namespace compass;
using namespace compass::bench;
using namespace compass::rmc;
using namespace compass::sim;
using namespace compass::spec;

namespace {

struct LinRow {
  uint64_t Executions = 0;
  uint64_t Checked = 0;
  uint64_t GraphViolations = 0;
  uint64_t NoWitness = 0;
  uint64_t SearchStates = 0;
};

LinRow runWorkload(StackImpl Impl,
                   std::vector<std::vector<Value>> Pushers,
                   std::vector<unsigned> Poppers, unsigned Preemptions) {
  Explorer::Options Opts;
  Opts.PreemptionBound = Preemptions;
  Opts.MaxExecutions = 250'000;

  LinRow Row;
  std::unique_ptr<spec::SpecMonitor> Mon;
  std::unique_ptr<lib::SimStack> St;
  std::vector<std::vector<Value>> Got;

  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Mon = std::make_unique<spec::SpecMonitor>();
        St = makeStack(Impl, M, *Mon);
        Got.assign(Poppers.size(), {});
        for (auto &Vs : Pushers) {
          sim::Env &E = S.newThread();
          S.start(E, pusher(E, *St, Vs));
        }
        for (size_t I = 0; I != Poppers.size(); ++I) {
          sim::Env &E = S.newThread();
          S.start(E, popper(E, *St, Poppers[I], &Got[I]));
        }
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        if (R != Scheduler::RunResult::Done)
          return;
        ++Row.Checked;
        if (!checkConsistent(Mon->graph(), St->objId(), SeqSpec::Stack).ok())
          ++Row.GraphViolations;
        auto LR = findLinearization(Mon->graph(), St->objId(),
                                    SeqSpec::Stack);
        Row.SearchStates += LR.StatesExplored;
        if (!LR.Found)
          ++Row.NoWitness;
      });
  Row.Executions = Sum.Executions;
  return Row;
}

} // namespace

int main() {
  std::printf("E4: LAT_hist_hb linearizable-history spec for stacks "
              "(paper Figure 4, Section 3.3)\n\n");

  struct Workload {
    std::vector<std::vector<Value>> Pushers;
    std::vector<unsigned> Poppers;
    unsigned Preemptions;
  };
  const Workload Workloads[] = {
      {{{1}}, {1}, ~0u},
      {{{1, 2}}, {2}, 3},
      {{{1}, {2}}, {2}, 2},
      {{{1, 2}}, {1, 1}, 2},
  };

  Table T({"stack", "workload", "executions", "checked", "LAT_hb (graph)",
           "LAT_hist witness", "search states"});

  bool AllOk = true;
  for (StackImpl Impl : {StackImpl::Treiber, StackImpl::Locked}) {
    for (const Workload &W : Workloads) {
      LinRow Row = runWorkload(Impl, W.Pushers, W.Poppers, W.Preemptions);
      AllOk &= Row.GraphViolations == 0 && Row.NoWitness == 0 &&
               Row.Checked > 0;
      T.addRow({stackImplName(Impl),
                workloadName(W.Pushers, W.Poppers, "push", "pop"),
                fmtU64(Row.Executions), fmtU64(Row.Checked),
                Row.GraphViolations ? "VIOLATED" : "holds",
                Row.NoWitness ? "MISSING (" + fmtU64(Row.NoWitness) + "x)"
                              : "found in all",
                fmtU64(Row.SearchStates)});
    }
  }
  T.print();
  std::printf("\nPaper claim reproduced: the relaxed Treiber stack "
              "satisfies the linearizable-history\nspec — a total order "
              "to ⊇ lhb with interp(to, vs) exists for every recorded "
              "history.\n%s\n",
              AllOk ? "ALL ROWS AS EXPECTED." : "DEVIATIONS FOUND!");
  return AllOk ? 0 : 1;
}
