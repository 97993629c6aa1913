//===-- bench/bench_verification_summary.cpp - Experiment E7 ---------------===//
//
// The analog of the paper's Section 1.2 mechanization report ("our library
// verifications are between 1.5KLOC and 3.0KLOC ... first mechanized RMC
// verifications of exchanger, elimination stack, and the Herlihy-Wing
// queue"): one row per library × spec style with the exploration effort
// (executions, events) standing in for proof effort, plus this
// repository's module line counts standing in for the Coq development's.
//
//===----------------------------------------------------------------------===//

#include "ExperimentUtil.h"
#include "lib/ElimStack.h"
#include "lib/Exchanger.h"
#include "spec/Composition.h"
#include "spec/Consistency.h"
#include "spec/Linearization.h"
#include "support/Json.h"

#include <filesystem>
#include <fstream>

using namespace compass;
using namespace compass::bench;
using namespace compass::rmc;
using namespace compass::sim;
using namespace compass::spec;

namespace {

struct VerifyRow {
  std::string Library;
  std::string Spec;
  uint64_t Executions = 0;
  uint64_t Events = 0;
  uint64_t Violations = 0;
  Explorer::Summary Sum; // full exploration summary (for the JSON dump)
};

/// Standard contended workload: one producing thread with two values, two
/// consuming threads with one operation each.
template <typename SetupT, typename CheckT>
VerifyRow verify(std::string Library, std::string Spec, SetupT Setup,
                 CheckT Check) {
  Explorer::Options Opts;
  Opts.PreemptionBound = 2;
  Opts.MaxExecutions = 120'000;

  VerifyRow Row;
  Row.Library = std::move(Library);
  Row.Spec = std::move(Spec);
  auto Sum = explore(
      Opts, Setup,
      [&](Machine &M, Scheduler &S, Scheduler::RunResult R) {
        (void)M;
        (void)S;
        if (R != Scheduler::RunResult::Done)
          return;
        uint64_t Events = 0;
        if (!Check(Events))
          ++Row.Violations;
        Row.Events += Events;
      });
  Row.Executions = Sum.Executions;
  Row.Sum = std::move(Sum);
  return Row;
}

/// Dumps the per-row results (including the full exploration summaries with
/// per-tag choice-point statistics) to BENCH_verification_summary.json so
/// the verification-effort trajectory is tracked across PRs.
void writeJson(const std::vector<VerifyRow> &Rows, const std::string &OutDir) {
  JsonWriter J;
  J.beginObject();
  J.field("experiment", "E7 verification summary");
  J.key("rows");
  J.beginArray();
  for (const VerifyRow &R : Rows) {
    J.beginObject();
    J.field("library", R.Library);
    J.field("spec", R.Spec);
    J.field("executions", R.Executions);
    J.field("events_checked", R.Events);
    J.field("violations", R.Violations);
    J.key("exploration");
    J.raw(R.Sum.json());
    J.endObject();
  }
  J.endArray();
  J.endObject();
  writeBenchJson(OutDir, "BENCH_verification_summary.json", J.str());
}

uint64_t countLines(const std::filesystem::path &Dir) {
  uint64_t N = 0;
  std::error_code Ec;
  for (auto It = std::filesystem::recursive_directory_iterator(Dir, Ec);
       It != std::filesystem::recursive_directory_iterator();
       It.increment(Ec)) {
    if (Ec)
      break;
    if (!It->is_regular_file())
      continue;
    auto Ext = It->path().extension();
    if (Ext != ".h" && Ext != ".cpp")
      continue;
    std::ifstream In(It->path());
    std::string Line;
    while (std::getline(In, Line))
      ++N;
  }
  return N;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string OutDir = benchOutDir(Argc, Argv);
  std::printf("E7: verification summary (the paper's Section 1.2 report, "
              "reproduced as\nexhaustive model-checking results)\n\n");

  Table T({"library", "spec style", "executions", "events checked",
           "violations"});
  std::vector<VerifyRow> Rows;

  // Queues.
  for (QueueImpl Impl : {QueueImpl::Ms, QueueImpl::Hw, QueueImpl::Locked}) {
    std::unique_ptr<spec::SpecMonitor> Mon;
    std::unique_ptr<lib::SimQueue> Q;
    std::vector<std::vector<Value>> Got;
    auto Setup = [&](Machine &M, Scheduler &S) {
      Mon = std::make_unique<spec::SpecMonitor>();
      Q = makeQueue(Impl, M, *Mon);
      Got.assign(2, {});
      sim::Env &E0 = S.newThread();
      S.start(E0, enqueuer(E0, *Q, {1, 2}));
      sim::Env &E1 = S.newThread();
      S.start(E1, dequeuer(E1, *Q, 1, &Got[0]));
      sim::Env &E2 = S.newThread();
      S.start(E2, dequeuer(E2, *Q, 1, &Got[1]));
    };
    Rows.push_back(verify(queueImplName(Impl), "LAT_hb (QueueConsistent)",
                          Setup, [&](uint64_t &Events) {
                            Events = Mon->graph().committedEvents().size();
                            return checkConsistent(Mon->graph(), Q->objId(),
                                                   SeqSpec::Queue)
                                .ok();
                          }));
    if (Impl != QueueImpl::Hw)
      Rows.push_back(verify(queueImplName(Impl), "LAT_abs_hb (abs state)",
                            Setup, [&](uint64_t &Events) {
                              Events =
                                  Mon->graph().committedEvents().size();
                              return checkAbsState(Mon->graph(), Q->objId(),
                                                   SeqSpec::Queue)
                                  .ok();
                            }));
  }

  // Stacks.
  for (StackImpl Impl : {StackImpl::Treiber, StackImpl::Locked}) {
    std::unique_ptr<spec::SpecMonitor> Mon;
    std::unique_ptr<lib::SimStack> St;
    std::vector<std::vector<Value>> Got;
    auto Setup = [&](Machine &M, Scheduler &S) {
      Mon = std::make_unique<spec::SpecMonitor>();
      St = makeStack(Impl, M, *Mon);
      Got.assign(2, {});
      sim::Env &E0 = S.newThread();
      S.start(E0, pusher(E0, *St, {1, 2}));
      sim::Env &E1 = S.newThread();
      S.start(E1, popper(E1, *St, 1, &Got[0]));
      sim::Env &E2 = S.newThread();
      S.start(E2, popper(E2, *St, 1, &Got[1]));
    };
    Rows.push_back(verify(stackImplName(Impl), "LAT_hb (StackConsistent)",
                          Setup, [&](uint64_t &Events) {
                            Events = Mon->graph().committedEvents().size();
                            return checkConsistent(Mon->graph(), St->objId(),
                                                   SeqSpec::Stack)
                                .ok();
                          }));
    Rows.push_back(verify(stackImplName(Impl), "LAT_hist_hb (linearizable)",
                          Setup, [&](uint64_t &Events) {
                            Events = Mon->graph().committedEvents().size();
                            return findLinearization(Mon->graph(),
                                                     St->objId(),
                                                     SeqSpec::Stack)
                                .Found;
                          }));
  }

  // Exchanger.
  {
    std::unique_ptr<spec::SpecMonitor> Mon;
    std::unique_ptr<lib::Exchanger> X;
    std::vector<Value> Got;
    struct ExchangeBody {
      static sim::Task<void> run(sim::Env &E, lib::Exchanger &X, Value V,
                                 Value *Out) {
        auto T = X.exchange(E, V, 2);
        *Out = co_await T;
      }
    };
    auto Setup = [&](Machine &M, Scheduler &S) {
      Mon = std::make_unique<spec::SpecMonitor>();
      X = std::make_unique<lib::Exchanger>(M, *Mon, "x");
      Got.assign(2, 0);
      for (unsigned I = 0; I != 2; ++I) {
        sim::Env &E = S.newThread();
        S.start(E, ExchangeBody::run(E, *X, 10 + I, &Got[I]));
      }
    };
    Rows.push_back(verify("exchanger", "ExchangerConsistent (Fig. 5)",
                          Setup, [&](uint64_t &Events) {
                            Events = Mon->graph().committedEvents().size();
                            return checkExchangerConsistent(Mon->graph(),
                                                            X->objId())
                                .ok();
                          }));
  }

  // Elimination stack (compositional).
  {
    std::unique_ptr<spec::SpecMonitor> Mon;
    std::unique_ptr<lib::ElimStack> St;
    struct EsBody {
      static sim::Task<void> push2(sim::Env &E, lib::ElimStack &S) {
        auto T1 = S.push(E, 1, 3);
        co_await T1;
        auto T2 = S.push(E, 2, 3);
        co_await T2;
      }
      static sim::Task<void> pop1(sim::Env &E, lib::ElimStack &S) {
        auto T = S.pop(E, 3);
        co_await T;
      }
    };
    auto Setup = [&](Machine &M, Scheduler &S) {
      Mon = std::make_unique<spec::SpecMonitor>();
      St = std::make_unique<lib::ElimStack>(M, *Mon, "es");
      sim::Env &E0 = S.newThread();
      S.start(E0, EsBody::push2(E0, *St));
      sim::Env &E1 = S.newThread();
      S.start(E1, EsBody::pop1(E1, *St));
      sim::Env &E2 = S.newThread();
      S.start(E2, EsBody::pop1(E2, *St));
    };
    Rows.push_back(
        verify("elimination stack", "StackConsistent (composed, §4.1)",
               Setup, [&](uint64_t &Events) {
                 graph::EventGraph Es = buildElimStackGraph(
                     Mon->graph(), St->baseObjId(), St->exchangerObjId(),
                     100);
                 Events = Es.objectEvents(100).size();
                 return checkConsistent(Es, 100, SeqSpec::Stack).ok();
               }));
  }

  bool AllOk = true;
  for (const VerifyRow &R : Rows) {
    AllOk &= R.Violations == 0;
    T.addRow({R.Library, R.Spec, fmtU64(R.Executions), fmtU64(R.Events),
              fmtViolations(R.Violations)});
  }
  T.print();

  // Module inventory: the analog of the paper's KLOC report.
#ifdef COMPASS_SOURCE_DIR
  std::printf("\nModule inventory (lines of C++, the analog of the "
              "paper's Coq KLOC table):\n");
  Table L({"module", "role", "lines"});
  const std::pair<const char *, const char *> Modules[] = {
      {"src/rmc", "ORC11 view-based memory model"},
      {"src/sim", "coroutine scheduler + model checker"},
      {"src/graph", "event graphs (logical views)"},
      {"src/spec", "LAT_hb/abs/hist specs + composition"},
      {"src/lib", "verified simulated libraries"},
      {"src/clients", "verified clients (MP, SPSC, resx)"},
      {"src/native", "std::atomic production library"},
      {"tests", "test suite"},
      {"bench", "experiment harnesses"},
  };
  std::filesystem::path Root(COMPASS_SOURCE_DIR);
  for (auto [Dir, Role] : Modules)
    L.addRow({Dir, Role, fmtU64(countLines(Root / Dir))});
  L.print();
#endif

  writeJson(Rows, OutDir);

  std::printf("\n%s\n", AllOk ? "ALL VERIFICATIONS PASS."
                              : "DEVIATIONS FOUND!");
  return AllOk ? 0 : 1;
}
