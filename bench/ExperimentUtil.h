//===-- bench/ExperimentUtil.h - Shared experiment drivers ------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the model-checking experiment binaries (E1-E7 in
/// DESIGN.md): simulated-thread workload helpers, per-execution check
/// plumbing and fixed-width table printing. Each bench binary prints the
/// rows of the paper artifact it regenerates; see EXPERIMENTS.md for the
/// mapping.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_BENCH_EXPERIMENTUTIL_H
#define COMPASS_BENCH_EXPERIMENTUTIL_H

#include "lib/Container.h"
#include "lib/HwQueue.h"
#include "lib/Locked.h"
#include "lib/MsQueue.h"
#include "lib/TreiberStack.h"
#include "sim/Workload.h"
#include "spec/Consistency.h"
#include "spec/SpecMonitor.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

namespace compass::bench {

//===----------------------------------------------------------------------===//
// Bench output hygiene
//===----------------------------------------------------------------------===//

/// Parses and removes a `--bench-out <dir>` flag from argv (so later flag
/// parsers, e.g. benchmark::Initialize, never see it), defaulting to the
/// current working directory. Exits 2 when the directory does not exist,
/// before any row runs. Prints the resolved absolute output directory,
/// and — when the binary was built with assertions enabled (no NDEBUG) —
/// emits a loud warning so Debug numbers never silently land in the
/// committed perf trajectory.
inline std::string benchOutDir(int &Argc, char **Argv) {
  std::string Dir = ".";
  for (int I = 1; I < Argc; ++I)
    if (!std::strcmp(Argv[I], "--bench-out")) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "--bench-out needs a directory\n");
        std::exit(2);
      }
      Dir = Argv[I + 1];
      for (int J = I; J + 2 <= Argc; ++J)
        Argv[J] = Argv[J + 2];
      Argc -= 2;
      break;
    }
#ifndef NDEBUG
  std::fprintf(stderr,
               "*** WARNING ***********************************************\n"
               "* This benchmark binary was built WITHOUT NDEBUG:         *\n"
               "* assertions are live and numbers are NOT representative. *\n"
               "* Do not commit this run's BENCH_*.json. Use the          *\n"
               "* bench-lto CMake preset for recorded figures.            *\n"
               "***********************************************************\n");
#endif
  std::error_code Ec;
  if (!std::filesystem::is_directory(Dir, Ec)) {
    std::fprintf(stderr, "--bench-out: no such directory: %s\n", Dir.c_str());
    std::exit(2);
  }
  std::filesystem::path Abs = std::filesystem::absolute(Dir, Ec);
  std::string Out = Ec ? Dir : Abs.lexically_normal().string();
  std::printf("bench output directory: %s\n", Out.c_str());
  return Out;
}

/// Writes \p Json and a newline to \p Dir/\p Name and reports the path;
/// exits 1 when the file cannot be written.
inline void writeBenchJson(const std::string &Dir, const char *Name,
                           const std::string &Json) {
  std::string Path = Dir + "/" + Name;
  std::ofstream Out(Path);
  Out << Json << "\n";
  Out.close();
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    std::exit(1);
  }
  std::printf("\nwrote %s\n", Path.c_str());
}

//===----------------------------------------------------------------------===//
// Table printing
//===----------------------------------------------------------------------===//

/// Fixed-width text table; print() renders header, separator and rows.
class Table {
public:
  explicit Table(std::vector<std::string> Header)
      : Header(std::move(Header)) {}

  void addRow(std::vector<std::string> Row) { Rows.push_back(std::move(Row)); }

  void print() const {
    std::vector<size_t> Width(Header.size(), 0);
    auto Measure = [&](const std::vector<std::string> &Row) {
      for (size_t I = 0; I != Row.size() && I != Width.size(); ++I)
        if (Row[I].size() > Width[I])
          Width[I] = Row[I].size();
    };
    Measure(Header);
    for (const auto &Row : Rows)
      Measure(Row);

    auto PrintRow = [&](const std::vector<std::string> &Row) {
      std::printf("|");
      for (size_t I = 0; I != Width.size(); ++I) {
        const std::string &Cell = I < Row.size() ? Row[I] : std::string();
        std::printf(" %-*s |", static_cast<int>(Width[I]), Cell.c_str());
      }
      std::printf("\n");
    };
    PrintRow(Header);
    std::printf("|");
    for (size_t I = 0; I != Width.size(); ++I)
      std::printf("%s|", std::string(Width[I] + 2, '-').c_str());
    std::printf("\n");
    for (const auto &Row : Rows)
      PrintRow(Row);
  }

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

inline std::string fmtU64(uint64_t V) { return std::to_string(V); }

/// "0" rendered as "none", otherwise the count — for violation columns.
inline std::string fmtViolations(uint64_t V) {
  return V == 0 ? "none" : std::to_string(V);
}

//===----------------------------------------------------------------------===//
// Simulated queue/stack workload helpers
//===----------------------------------------------------------------------===//

enum class QueueImpl { Ms, Hw, Locked };
enum class StackImpl { Treiber, Locked };

inline const char *queueImplName(QueueImpl K) {
  switch (K) {
  case QueueImpl::Ms:
    return "michael-scott";
  case QueueImpl::Hw:
    return "herlihy-wing";
  case QueueImpl::Locked:
    return "locked";
  }
  return "?";
}

inline const char *stackImplName(StackImpl K) {
  return K == StackImpl::Treiber ? "treiber" : "locked";
}

inline std::unique_ptr<lib::SimQueue>
makeQueue(QueueImpl K, rmc::Machine &M, spec::SpecMonitor &Mon) {
  switch (K) {
  case QueueImpl::Ms:
    return std::make_unique<lib::MsQueue>(M, Mon, "q");
  case QueueImpl::Hw:
    return std::make_unique<lib::HwQueue>(M, Mon, "q", 16);
  case QueueImpl::Locked:
    return std::make_unique<lib::LockedQueue>(M, Mon, "q", 16);
  }
  return nullptr;
}

inline std::unique_ptr<lib::SimStack>
makeStack(StackImpl K, rmc::Machine &M, spec::SpecMonitor &Mon) {
  if (K == StackImpl::Treiber)
    return std::make_unique<lib::TreiberStack>(M, Mon, "s");
  return std::make_unique<lib::LockedStack>(M, Mon, "s", 16);
}

inline sim::Task<void> enqueuer(sim::Env &E, lib::SimQueue &Q,
                                std::vector<rmc::Value> Vs) {
  for (rmc::Value V : Vs) {
    auto T = Q.enqueue(E, V);
    co_await T;
  }
}

inline sim::Task<void> dequeuer(sim::Env &E, lib::SimQueue &Q, unsigned N,
                                std::vector<rmc::Value> *Out) {
  for (unsigned I = 0; I != N; ++I) {
    auto T = Q.dequeue(E);
    Out->push_back(co_await T);
  }
}

inline sim::Task<void> pusher(sim::Env &E, lib::SimStack &S,
                              std::vector<rmc::Value> Vs) {
  for (rmc::Value V : Vs) {
    auto T = S.push(E, V);
    co_await T;
  }
}

inline sim::Task<void> popper(sim::Env &E, lib::SimStack &S, unsigned N,
                              std::vector<rmc::Value> *Out) {
  for (unsigned I = 0; I != N; ++I) {
    auto T = S.pop(E);
    Out->push_back(co_await T);
  }
}

/// The fixed E2/E7 queue workload: enq{1,2} against two single-element
/// dequeuers over \p Impl, checked against QueueConsistent every
/// execution. \p Opts carries the bound, reduction, engine, workers and
/// cap; the body factory gives each worker private monitor and queue
/// state.
inline sim::Workload queueWorkload(QueueImpl Impl,
                                   sim::Explorer::Options Opts) {
  return sim::Workload(Opts, [Impl]() -> sim::Workload::Body {
    struct State {
      std::unique_ptr<spec::SpecMonitor> Mon;
      std::unique_ptr<lib::SimQueue> Q;
      std::vector<rmc::Value> Got0, Got1;
    };
    auto St = std::make_shared<State>();
    sim::Workload::Body B{
        [St, Impl](rmc::Machine &M, sim::Scheduler &S) {
          if (!St->Mon)
            St->Mon = std::make_unique<spec::SpecMonitor>();
          St->Mon->reset();
          St->Q = makeQueue(Impl, M, *St->Mon);
          St->Got0.clear();
          St->Got1.clear();
          sim::Env &E0 = S.newThread();
          S.start(E0, enqueuer(E0, *St->Q, {1, 2}));
          sim::Env &E1 = S.newThread();
          S.start(E1, dequeuer(E1, *St->Q, 1, &St->Got0));
          sim::Env &E2 = S.newThread();
          S.start(E2, dequeuer(E2, *St->Q, 1, &St->Got1));
        },
        [St](rmc::Machine &, sim::Scheduler &, sim::Scheduler::RunResult R) {
          if (R != sim::Scheduler::RunResult::Done)
            return true; // Deadlocks and limits are counted, not failed.
          return spec::checkConsistent(St->Mon->graph(), St->Q->objId(),
                                       spec::SeqSpec::Queue)
              .ok();
        }};
    // The client state threads change is the monitor plus the Got vectors
    // (the queue keeps none of its own).
    struct CowState {
      spec::SpecMonitor::Epoch MonEpoch;
      std::vector<rmc::Value> Got0, Got1;
    };
    B.CowSave = [St](std::shared_ptr<void> &Slot) {
      if (!Slot)
        Slot = std::make_shared<CowState>();
      auto &C = *std::static_pointer_cast<CowState>(Slot);
      C.MonEpoch = St->Mon->epoch();
      C.Got0 = St->Got0;
      C.Got1 = St->Got1;
    };
    B.CowRestore = [St](const std::shared_ptr<void> &Slot) {
      const auto &C = *std::static_pointer_cast<CowState>(Slot);
      St->Mon->trimToEpoch(C.MonEpoch);
      St->Got0 = C.Got0;
      St->Got1 = C.Got1;
    };
    return B;
  });
}

/// Renders a workload like "enq[2]+enq[1] / deq[2]".
inline std::string
workloadName(const std::vector<std::vector<rmc::Value>> &Producers,
             const std::vector<unsigned> &Consumers, const char *ProdName,
             const char *ConsName) {
  std::string Out;
  for (size_t I = 0; I != Producers.size(); ++I) {
    if (I)
      Out += "+";
    Out += std::string(ProdName) + "[" +
           std::to_string(Producers[I].size()) + "]";
  }
  Out += " / ";
  for (size_t I = 0; I != Consumers.size(); ++I) {
    if (I)
      Out += "+";
    Out += std::string(ConsName) + "[" + std::to_string(Consumers[I]) + "]";
  }
  return Out;
}

} // namespace compass::bench

#endif // COMPASS_BENCH_EXPERIMENTUTIL_H
