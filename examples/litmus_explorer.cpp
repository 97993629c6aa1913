//===-- examples/litmus_explorer.cpp - RC11 litmus tests, exhaustively ----===//
//
// Uses the framework's memory-model machine and model checker directly:
// classic litmus tests (Message Passing, Store Buffering, CoRR) explored
// over every interleaving *and* every reads-from choice, printing the set
// of final outcomes per access-mode configuration — a miniature of the
// "allowed/forbidden behaviours" tables of the RC11 literature the paper
// builds on.
//
// Build & run:  ./build/examples/litmus_explorer
//
//===----------------------------------------------------------------------===//

#include "sim/Workload.h"

#include <cstdio>
#include <map>

using namespace compass;
using namespace compass::rmc;
using namespace compass::sim;

namespace {

Task<void> mpWriter(Env &E, Loc X, Loc F, MemOrder O) {
  co_await E.store(X, 1, MemOrder::Relaxed);
  co_await E.store(F, 1, O);
}

Task<void> mpReader(Env &E, Loc X, Loc F, MemOrder O, Value *Rf,
                    Value *Rx) {
  *Rf = co_await E.load(F, O);
  *Rx = co_await E.load(X, MemOrder::Relaxed);
}

Task<void> sbThread(Env &E, Loc Mine, Loc Theirs, bool Fence, Value *R) {
  co_await E.store(Mine, 1, MemOrder::Relaxed);
  if (Fence)
    co_await E.fence(MemOrder::SeqCst);
  *R = co_await E.load(Theirs, MemOrder::Relaxed);
}

using Outcomes = std::map<std::pair<Value, Value>, uint64_t>;

void printOutcomes(const char *Name, const char *Vars, const Outcomes &O,
                   std::pair<Value, Value> Interesting,
                   bool InterestingAllowed) {
  std::printf("%s   outcomes %s:", Name, Vars);
  for (auto &[K, N] : O)
    std::printf("  (%llu,%llu)x%llu", (unsigned long long)K.first,
                (unsigned long long)K.second, (unsigned long long)N);
  bool Seen = O.count(Interesting) > 0;
  std::printf("\n  -> weak outcome (%llu,%llu) %s, RC11 says %s\n\n",
              (unsigned long long)Interesting.first,
              (unsigned long long)Interesting.second,
              Seen ? "OBSERVED" : "absent",
              InterestingAllowed ? "allowed" : "forbidden");
}

Outcomes runMp(MemOrder StoreO, MemOrder LoadO) {
  Outcomes O;
  Value Rf = 0, Rx = 0;
  explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        Rf = Rx = 0;
        Loc X = M.alloc("x"), F = M.alloc("f");
        Env &E0 = S.newThread();
        S.start(E0, mpWriter(E0, X, F, StoreO));
        Env &E1 = S.newThread();
        S.start(E1, mpReader(E1, X, F, LoadO, &Rf, &Rx));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult) {
        ++O[{Rf, Rx}];
      });
  return O;
}

Outcomes runSb(bool Fences) {
  Outcomes O;
  Value R0 = 0, R1 = 0;
  explore(
      Explorer::Options{},
      [&](Machine &M, Scheduler &S) {
        R0 = R1 = 0;
        Loc X = M.alloc("x"), Y = M.alloc("y");
        Env &E0 = S.newThread();
        S.start(E0, sbThread(E0, X, Y, Fences, &R0));
        Env &E1 = S.newThread();
        S.start(E1, sbThread(E1, Y, X, Fences, &R1));
      },
      [&](Machine &, Scheduler &, Scheduler::RunResult) {
        ++O[{R0, R1}];
      });
  return O;
}

} // namespace

int main() {
  std::printf("RC11 litmus outcomes under exhaustive exploration "
              "(count = executions)\n\n");

  printOutcomes("MP rel/acq ", "(r_flag, r_x)",
                runMp(MemOrder::Release, MemOrder::Acquire), {1, 0},
                false);
  printOutcomes("MP rlx/rlx ", "(r_flag, r_x)",
                runMp(MemOrder::Relaxed, MemOrder::Relaxed), {1, 0}, true);
  printOutcomes("SB rlx     ", "(r0, r1)     ", runSb(false), {0, 0},
                true);
  printOutcomes("SB sc-fence", "(r0, r1)     ", runSb(true), {0, 0},
                false);

  std::printf("the machine realizes exactly the view semantics of the "
              "paper's Section 2.3:\nrelease writes carry views, acquire "
              "reads join them, SC fences join the global\nview — and "
              "logical (event) views ride along the same edges.\n");
  return 0;
}
