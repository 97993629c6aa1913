//===-- bench/bench_mp_client.cpp - Experiment E1 (Figures 1 and 3) --------===//
//
// Regenerates the paper's central client result: in the Message-Passing
// client of Figure 1, the right-most thread's dequeue can never return
// empty — because it synchronized with both enqueues *externally* through
// the release/acquire flag (the Figure 3 proof). The ablation rows drop
// that synchronization (relaxed flag) and show the guarantee collapse,
// demonstrating that the LAT_hb specs' support for combining library-
// internal and client-external happens-before is load-bearing.
//
// Expected shape: verified rows report 0 empty dequeues on the right and
// no consistency violations; ablation rows report > 0 empty dequeues for
// the lock-free queues (the locked queue is internally strong enough to
// survive even a relaxed flag).
//
//===----------------------------------------------------------------------===//

#include "ExperimentUtil.h"
#include "clients/MpClient.h"
#include "spec/Consistency.h"

#include <cinttypes>

using namespace compass;
using namespace compass::bench;
using namespace compass::clients;
using namespace compass::rmc;
using namespace compass::sim;

namespace {

struct MpRow {
  uint64_t Executions = 0;
  uint64_t Checked = 0;
  uint64_t RightEmpty = 0;
  uint64_t GraphViolations = 0;
};

MpRow runMp(QueueImpl Impl, MemOrder FlagStore, MemOrder FlagRead) {
  Explorer::Options Opts;
  Opts.PreemptionBound = 2;
  Opts.MaxExecutions = 250'000;

  MpRow Row;
  std::unique_ptr<spec::SpecMonitor> Mon;
  std::unique_ptr<lib::SimQueue> Q;
  MpOutcome Out;
  MpConfig Cfg;
  Cfg.FlagStore = FlagStore;
  Cfg.FlagRead = FlagRead;

  auto Sum = explore(
      Opts,
      [&](Machine &M, Scheduler &S) {
        Mon = std::make_unique<spec::SpecMonitor>();
        Q = makeQueue(Impl, M, *Mon);
        Out = MpOutcome();
        setupMpClient(M, S, *Q, Cfg, Out);
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult R) {
        if (R != Scheduler::RunResult::Done)
          return;
        ++Row.Checked;
        if (Out.Right == graph::EmptyVal)
          ++Row.RightEmpty;
        if (!spec::checkConsistent(Mon->graph(), Q->objId(),
                                   spec::SeqSpec::Queue)
                 .ok())
          ++Row.GraphViolations;
      });
  Row.Executions = Sum.Executions;
  return Row;
}

} // namespace

int main() {
  std::printf("E1: Message-Passing client (paper Figures 1 and 3)\n");
  std::printf("3 threads: enq(41);enq(42);flag:=1  |  deq  |  await flag;"
              "deq\n");
  std::printf("exhaustive exploration, preemption bound 2\n\n");

  Table T({"queue", "flag sync", "executions", "checked", "right deq empty",
           "consistency violations", "verdict"});

  struct Config {
    MemOrder Store, Read;
    const char *Name;
    bool ExpectEmptyPossible; // For the lock-free queues.
  };
  const Config Configs[] = {
      {MemOrder::Release, MemOrder::Acquire, "release/acquire", false},
      {MemOrder::Relaxed, MemOrder::Relaxed, "relaxed (ablation)", true},
  };

  bool AllAsExpected = true;
  for (QueueImpl Impl : {QueueImpl::Ms, QueueImpl::Hw, QueueImpl::Locked}) {
    for (const Config &C : Configs) {
      MpRow Row = runMp(Impl, C.Store, C.Read);
      bool EmptySeen = Row.RightEmpty > 0;
      bool Expected = C.ExpectEmptyPossible && Impl != QueueImpl::Locked;
      bool Ok = EmptySeen == Expected && Row.GraphViolations == 0;
      AllAsExpected &= Ok;
      T.addRow({queueImplName(Impl), C.Name, fmtU64(Row.Executions),
                fmtU64(Row.Checked), fmtU64(Row.RightEmpty),
                fmtViolations(Row.GraphViolations),
                Ok ? "as proven" : "UNEXPECTED"});
    }
  }
  T.print();
  std::printf("\nPaper claim reproduced: with the release/acquire flag the "
              "right thread's dequeue\nis never empty on any "
              "implementation; dropping the flag's synchronization breaks "
              "the\nguarantee for the relaxed queues. %s\n",
              AllAsExpected ? "ALL ROWS AS EXPECTED." : "DEVIATIONS FOUND!");
  return AllAsExpected ? 0 : 1;
}
