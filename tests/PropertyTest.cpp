//===-- tests/PropertyTest.cpp - Property-based sweeps ----------------------===//
//
// Randomized property tests (parameterized over seeds) for the framework's
// algebraic cores: the view lattice, logical-view sets, machine invariants
// under random operation soup, the linearization search on generated
// histories with known answers, and event-graph invariants (logical-view
// monotonicity along so edges, commit-index totality) over exhaustively
// explored generated scenarios.
//
//===----------------------------------------------------------------------===//

#include "check/Harness.h"
#include "check/RefModel.h"
#include "check/ScenarioGen.h"
#include "graph/EventGraph.h"
#include "rmc/Machine.h"
#include "sim/Explorer.h"
#include "sim/Workload.h"
#include "spec/Composition.h"
#include "spec/Consistency.h"
#include "spec/Linearization.h"
#include "spec/SpecMonitor.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <set>

using namespace compass;
using namespace compass::rmc;

namespace {

View randomView(Rng &R, unsigned Locs, unsigned MaxTs) {
  View V;
  for (Loc L = 0; L != Locs; ++L)
    if (R.chance(1, 2))
      V.raise(L, static_cast<Timestamp>(R.range(0, MaxTs)));
  return V;
}

IdSet randomSet(Rng &R, unsigned MaxId) {
  IdSet S;
  for (uint32_t I = 0; I != MaxId; ++I)
    if (R.chance(1, 3))
      S.insert(I);
  return S;
}

/// Commits \p K(V) on object 0, lhb-after every event in \p SoFar.
graph::EventId appendEvent(graph::EventGraph &G, IdSet &SoFar,
                           graph::OpKind K, Value V) {
  graph::EventId Id = G.reserve();
  graph::Event E;
  E.Kind = K;
  E.V1 = V;
  E.LogView = SoFar;
  E.LogView.insert(Id);
  SoFar.insert(Id);
  G.commit(Id, std::move(E));
  return Id;
}

/// The witness oracle accepts \p Witness, the search's answer on a
/// generated history (whose lhb is total), and rejects it with its first
/// two events swapped or with its first event listed again in place of
/// its last.
void expectOracleJudges(const graph::EventGraph &G, spec::SeqSpec Spec,
                        const std::vector<graph::EventId> &Witness) {
  check::Verdict V = check::checkWitnessOrder(G, 0, Spec, Witness);
  EXPECT_TRUE(V.Ok) << V.str();
  ASSERT_GE(Witness.size(), 2u);

  std::vector<graph::EventId> Swapped = Witness;
  std::swap(Swapped[0], Swapped[1]);
  V = check::checkWitnessOrder(G, 0, Spec, Swapped);
  EXPECT_EQ(V.Rule, "ORACLE");
  EXPECT_NE(V.Detail.find("lhb-successor"), std::string::npos) << V.str();

  std::vector<graph::EventId> Twice = Witness;
  Twice.back() = Twice.front();
  V = check::checkWitnessOrder(G, 0, Spec, Twice);
  EXPECT_EQ(V.Rule, "ORACLE");
  EXPECT_NE(V.Detail.find("listed twice"), std::string::npos) << V.str();
}

/// The oracle rejects \p Witness extended by \p Tail, a step sequence
/// illegal in \p Spec's sequential semantics.
void expectOracleRejectsStep(const graph::EventGraph &G, spec::SeqSpec Spec,
                             std::vector<graph::EventId> Witness,
                             std::initializer_list<graph::EventId> Tail) {
  Witness.insert(Witness.end(), Tail);
  check::Verdict V = check::checkWitnessOrder(G, 0, Spec, Witness);
  EXPECT_EQ(V.Rule, "ORACLE");
  EXPECT_NE(V.Detail.find("is illegal"), std::string::npos) << V.str();
}

} // namespace

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededProperty, ViewJoinLatticeLaws) {
  Rng R(GetParam());
  for (int Round = 0; Round != 50; ++Round) {
    View A = randomView(R, 12, 20);
    View B = randomView(R, 12, 20);
    View C = randomView(R, 12, 20);

    // Commutativity.
    EXPECT_TRUE(join(A, B) == join(B, A));
    // Associativity.
    EXPECT_TRUE(join(join(A, B), C) == join(A, join(B, C)));
    // Idempotence.
    EXPECT_TRUE(join(A, A) == A);
    // The join is an upper bound.
    EXPECT_TRUE(A.includedIn(join(A, B)));
    EXPECT_TRUE(B.includedIn(join(A, B)));
    // It is the least one: any other upper bound includes it.
    View U = join(join(A, B), randomView(R, 12, 20));
    EXPECT_TRUE(join(A, B).includedIn(U));
    // Inclusion is antisymmetric up to equality.
    if (A.includedIn(B) && B.includedIn(A)) {
      EXPECT_TRUE(A == B);
    }
  }
}

TEST_P(SeededProperty, IdSetLatticeLaws) {
  Rng R(GetParam() + 1000);
  for (int Round = 0; Round != 50; ++Round) {
    IdSet A = randomSet(R, 150);
    IdSet B = randomSet(R, 150);

    IdSet AB = A;
    AB.joinWith(B);
    IdSet BA = B;
    BA.joinWith(A);
    EXPECT_TRUE(AB == BA);
    EXPECT_TRUE(A.subsetOf(AB));
    EXPECT_TRUE(B.subsetOf(AB));
    EXPECT_EQ(AB.count() + 0u,
              [&] {
                unsigned N = 0;
                for (uint32_t I = 0; I != 160; ++I)
                  N += A.contains(I) || B.contains(I);
                return N;
              }());

    // Insert/erase roundtrip on a fresh id.
    uint32_t Fresh = 200 + static_cast<uint32_t>(R.below(100));
    EXPECT_FALSE(A.contains(Fresh));
    A.insert(Fresh);
    EXPECT_TRUE(A.contains(Fresh));
    A.erase(Fresh);
    EXPECT_FALSE(A.contains(Fresh));
  }
}

namespace {

/// A ChoiceSource driving random machine operations.
class RandomChoice final : public ChoiceSource {
public:
  explicit RandomChoice(uint64_t Seed) : R(Seed) {}
  unsigned choose(unsigned, unsigned Limit, ChoiceKind) override {
    return static_cast<unsigned>(R.below(Limit));
  }
  Rng R;
};

} // namespace

TEST_P(SeededProperty, MachineInvariantsUnderRandomSoup) {
  RandomChoice C(GetParam() + 7);
  Machine M(C);
  constexpr unsigned Threads = 3, Locs = 4;
  for (unsigned T = 0; T != Threads; ++T)
    M.addThread();
  Loc Base = M.alloc("soup", Locs);

  Rng R(GetParam() + 99);
  for (int Step = 0; Step != 400; ++Step) {
    unsigned T = static_cast<unsigned>(R.below(Threads));
    Loc L = Base + static_cast<Loc>(R.below(Locs));
    MemOrder Orders[] = {MemOrder::Relaxed, MemOrder::Acquire,
                         MemOrder::Release, MemOrder::AcqRel,
                         MemOrder::SeqCst};
    switch (R.below(5)) {
    case 0:
      M.load(T, L, R.chance(1, 2) ? MemOrder::Relaxed : MemOrder::Acquire);
      break;
    case 1:
      M.store(T, L, R.below(100),
              R.chance(1, 2) ? MemOrder::Relaxed : MemOrder::Release);
      break;
    case 2:
      M.cas(T, L, R.below(100), R.below(100), Orders[3]);
      break;
    case 3:
      M.fetchAdd(T, L, 1, Orders[static_cast<size_t>(R.below(5))]);
      break;
    case 4:
      M.fence(T, Orders[1 + R.below(4)]);
      break;
    }

    // Invariants: cur ⊑ acq per thread; histories dense; message views
    // self-inclusive for atomic writes.
    for (unsigned T2 = 0; T2 != Threads; ++T2) {
      EXPECT_TRUE(M.threadCur(T2).Phys.includedIn(M.threadAcq(T2).Phys))
          << "cur must be included in acq";
    }
    for (Loc L2 = Base; L2 != Base + Locs; ++L2) {
      const Cell &Cell2 = M.memory().cell(L2);
      for (size_t I = 0; I != Cell2.Len; ++I) {
        if (I > 0) { // Init message aside, writes know themselves.
          EXPECT_GE(Cell2.know(I).Phys.get(L2), 0u);
        }
      }
    }
  }
  EXPECT_FALSE(M.raceDetected()) << M.raceMessage();
}

TEST_P(SeededProperty, GeneratedQueueHistoriesLinearizable) {
  // Build a random *valid* sequential queue history as an event graph
  // (single logical thread, program-order logical views): the search must
  // find a witness. Then corrupt the last consume's value: it must not.
  Rng R(GetParam() + 31);
  graph::EventGraph G;
  std::deque<Value> State;
  std::vector<graph::EventId> Order;
  Value NextV = 1;
  IdSet SoFar;

  for (int Op = 0; Op != 12; ++Op) {
    graph::EventId Id = G.reserve();
    graph::Event E;
    E.ObjId = 0;
    E.Thread = 0;
    E.LogView = SoFar;
    E.LogView.insert(Id);
    if (State.empty() || R.chance(2, 3)) {
      if (R.chance(1, 4)) {
        E.Kind = graph::OpKind::DeqEmpty;
        E.V1 = graph::EmptyVal;
        if (!State.empty()) { // Only valid on empty state.
          G.retract(Id);
          continue;
        }
      } else {
        E.Kind = graph::OpKind::Enq;
        E.V1 = NextV++;
        State.push_back(E.V1);
      }
    } else {
      E.Kind = graph::OpKind::DeqOk;
      E.V1 = State.front();
      State.pop_front();
    }
    SoFar.insert(Id);
    G.commit(Id, std::move(E));
    Order.push_back(Id);
  }

  auto Res = spec::findLinearization(G, 0, spec::SeqSpec::Queue);
  EXPECT_TRUE(Res.Found) << "valid sequential history must linearize";
  EXPECT_EQ(Res.Order.size(), Order.size());
  expectOracleJudges(G, spec::SeqSpec::Queue, Res.Order);

  // A FIFO-illegal step, on a copy of the valid history: two more
  // enqueues, then a dequeue of the newer.
  {
    graph::EventGraph Fifo = G;
    IdSet FifoSoFar = SoFar;
    graph::EventId E1 =
        appendEvent(Fifo, FifoSoFar, graph::OpKind::Enq, 1001);
    graph::EventId E2 =
        appendEvent(Fifo, FifoSoFar, graph::OpKind::Enq, 1002);
    graph::EventId D2 =
        appendEvent(Fifo, FifoSoFar, graph::OpKind::DeqOk, 1002);
    expectOracleRejectsStep(Fifo, spec::SeqSpec::Queue, Res.Order,
                            {E1, E2, D2});
  }

  // Corrupt the valid history: append a dequeue of a value that was never
  // enqueued.
  appendEvent(G, SoFar, graph::OpKind::DeqOk, 99'999);
  EXPECT_FALSE(spec::findLinearization(G, 0, spec::SeqSpec::Queue).Found);
}

TEST_P(SeededProperty, GeneratedDequeHistoriesLinearizable) {
  // Same for the work-stealing deque semantics: interleave pushes, owner
  // takes (back) and steals (front) against a model deque.
  Rng R(GetParam() + 77);
  graph::EventGraph G;
  std::deque<Value> State;
  Value NextV = 1;
  IdSet SoFar;

  for (int Op = 0; Op != 12; ++Op) {
    graph::EventId Id = G.reserve();
    graph::Event E;
    E.ObjId = 0;
    E.LogView = SoFar;
    E.LogView.insert(Id);
    unsigned Kind = static_cast<unsigned>(R.below(3));
    if (State.empty() || Kind == 0) {
      E.Kind = graph::OpKind::Push;
      E.V1 = NextV++;
      E.Thread = 0;
      State.push_back(E.V1);
    } else if (Kind == 1) {
      E.Kind = graph::OpKind::PopOk;
      E.V1 = State.back();
      E.Thread = 0;
      State.pop_back();
    } else {
      E.Kind = graph::OpKind::Steal;
      E.V1 = State.front();
      E.Thread = 1;
      State.pop_front();
    }
    SoFar.insert(Id);
    G.commit(Id, std::move(E));
  }

  auto Res = spec::findLinearization(G, 0, spec::SeqSpec::WsDeque);
  EXPECT_TRUE(Res.Found);
  auto Abs = spec::checkAbsState(G, 0, spec::SeqSpec::WsDeque);
  EXPECT_TRUE(Abs.ok()) << Abs.str();
  expectOracleJudges(G, spec::SeqSpec::WsDeque, Res.Order);

  // A LIFO-illegal step: two more pushes, then an owner take of the older.
  graph::EventId P1 = appendEvent(G, SoFar, graph::OpKind::Push, 1001);
  graph::EventId P2 = appendEvent(G, SoFar, graph::OpKind::Push, 1002);
  graph::EventId T1 = appendEvent(G, SoFar, graph::OpKind::PopOk, 1001);
  expectOracleRejectsStep(G, spec::SeqSpec::WsDeque, Res.Order,
                          {P1, P2, T1});
}

namespace {

/// Applies each op of one scenario thread (results discarded — these
/// sweeps only care about the committed event graph).
sim::Task<void> applyOps(check::ContainerAdapter &A,
                         std::vector<check::Op> Ops, sim::Env &E) {
  for (check::Op O : Ops) {
    auto T = A.apply(E, O);
    co_await T;
  }
}

} // namespace

TEST_P(SeededProperty, ExploredEventGraphInvariants) {
  // Exhaustively explore small generated scenarios (check/ScenarioGen.h)
  // over the pristine libraries and assert, on every completed execution's
  // event graph:
  //
  //  * structural well-formedness (EventGraph::checkWellFormed);
  //  * logical-view monotonicity along so edges — a synchronized-with
  //    edge e -so-> d transfers the producer's knowledge, so d's logical
  //    view must contain e and include e's entire view (Section 4.2's
  //    view transfer);
  //  * commit-index totality — committed events carry unique commit
  //    indices forming a gapless range (a *total* commit order `<`), and
  //    committedEvents() yields them strictly ascending;
  //  * logical views only reach *earlier-committed* events (CommitIdx
  //    monotone along lhb).
  using namespace compass::check;
  GenOptions Gen;
  Gen.MaxThreads = 2;
  Gen.MaxOpsPerThread = 2;
  Gen.MinPreemptions = Gen.MaxPreemptions = 1;
  uint64_t Checked = 0;
  for (Lib L : {Lib::MsQueue, Lib::TreiberStack, Lib::Exchanger,
                Lib::WsDeque}) {
    Scenario S = generateScenario(L, scenarioSeed(GetParam(), L, 0), Gen);
    SCOPED_TRACE(S.str());
    sim::Explorer Ex{scenarioOptions(S, 3000, 1)};
    while (Ex.beginExecution()) {
      Machine M(Ex);
      sim::Scheduler Sch(M, Ex);
      Sch.setPreemptionBound(Ex.options().PreemptionBound);
      spec::SpecMonitor Mon;
      ContainerAdapter A(S, Mutation::None, M, Mon);
      for (const auto &T : S.Threads) {
        sim::Env &E = Sch.newThread();
        Sch.start(E, applyOps(A, T, E));
      }
      auto R = Sch.run(Ex.options().MaxStepsPerExec);
      if (R == sim::Scheduler::RunResult::Done) {
        const graph::EventGraph &G = Mon.graph();
        std::string Err = G.checkWellFormed();
        ASSERT_TRUE(Err.empty()) << Err << "\n" << G.str();

        for (const graph::SoEdge &Ed : G.so()) {
          ASSERT_TRUE(G.isCommitted(Ed.From));
          ASSERT_TRUE(G.isCommitted(Ed.To));
          const graph::Event &From = G.event(Ed.From);
          const graph::Event &To = G.event(Ed.To);
          if (From.CommitIdx < To.CommitIdx) {
            // Commit-order-forward edge: the later event acquired the
            // earlier one's knowledge at its commit point.
            EXPECT_TRUE(To.LogView.contains(Ed.From))
                << "so edge " << Ed.From << "->" << Ed.To
                << " without knowledge transfer\n"
                << G.str();
            EXPECT_TRUE(From.LogView.subsetOf(To.LogView))
                << "logical view not monotone along so edge " << Ed.From
                << "->" << Ed.To << "\n"
                << G.str();
          } else {
            // Back edges arise only from the exchanger's symmetric
            // pairing (so-pairs in both directions, Section 4.2); the
            // commit-order-forward dual must exist and carries the view
            // transfer checked above.
            EXPECT_EQ(From.Kind, graph::OpKind::Exchange) << G.str();
            bool HasDual = false;
            for (graph::EventId Succ : G.soSuccessors(Ed.To))
              HasDual |= Succ == Ed.From;
            EXPECT_TRUE(HasDual)
                << "back so edge " << Ed.From << "->" << Ed.To
                << " without forward dual\n"
                << G.str();
          }
        }

        std::vector<graph::EventId> Ids = G.committedEvents();
        uint32_t MinIdx = ~0u, MaxIdx = 0;
        std::set<uint32_t> SeenIdx;
        uint32_t PrevIdx = 0;
        for (size_t I = 0; I != Ids.size(); ++I) {
          const graph::Event &Ev = G.event(Ids[I]);
          EXPECT_TRUE(SeenIdx.insert(Ev.CommitIdx).second)
              << "duplicate commit index " << Ev.CommitIdx;
          if (I > 0) {
            EXPECT_GT(Ev.CommitIdx, PrevIdx)
                << "committedEvents() not in commit order";
          }
          PrevIdx = Ev.CommitIdx;
          MinIdx = std::min(MinIdx, Ev.CommitIdx);
          MaxIdx = std::max(MaxIdx, Ev.CommitIdx);
          Ev.LogView.forEach([&](uint32_t Other) {
            ASSERT_TRUE(G.isCommitted(Other));
            EXPECT_LE(G.event(Other).CommitIdx, Ev.CommitIdx)
                << "logical view of " << Ids[I]
                << " reaches a later-committed event " << Other;
          });
        }
        if (!Ids.empty()) {
          EXPECT_EQ(static_cast<size_t>(MaxIdx - MinIdx) + 1, Ids.size())
              << "commit indices are not a gapless total order";
        }
        ++Checked;
      }
      Ex.endExecution(R);
    }
  }
  EXPECT_GT(Checked, 0u) << "sweep was vacuous";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(LinearizationSearch, AgreesWithBruteForceOnExploredHistories) {
  // The memoised DFS of spec::findLinearization against the simplest
  // decision procedure (ROADMAP item 5(c)): on every completed execution
  // of generated queue, stack and deque scenarios of at most 7 ops,
  // pristine and under each of their mutants, the search finds a witness
  // exactly when some permutation of the object's history passes the
  // oracle (check::checkWitnessOrder). Unbounded search, so no verdict is
  // "unknown"; histories already compared are skipped. The draw takes
  // three scenarios per case of up to three threads: the first scenario
  // of two threads alone did not catch a visited set keyed by the chosen
  // events without the abstract state.
  using namespace compass::check;
  std::vector<std::pair<Lib, Mutation>> Cases;
  for (unsigned I = 0; I != NumLibs; ++I)
    if (libSpec(allLibs()[I]))
      Cases.push_back({allLibs()[I], Mutation::None});
  for (unsigned I = 1; I != NumMutations; ++I) {
    auto Mut = static_cast<Mutation>(I);
    if (libSpec(mutationLib(Mut)))
      Cases.push_back({mutationLib(Mut), Mut});
  }
  GenOptions Gen;
  Gen.MaxThreads = 3;
  Gen.MaxOpsPerThread = 3;
  Gen.MinPreemptions = Gen.MaxPreemptions = 1;
  std::set<std::vector<uint64_t>> Seen;
  std::vector<uint64_t> Key;
  uint64_t Witnessed = 0, Refuted = 0;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed)
    for (const auto &[L, Mut] : Cases)
      for (unsigned K = 0; K != 3; ++K) {
        Scenario S = generateScenario(L, scenarioSeed(Seed, L, K), Gen);
        if (S.numOps() > 7)
          continue;
        SCOPED_TRACE(S.str() + " mutation " + mutationName(Mut));
        const spec::SeqSpec Spec = *libSpec(L);
        Instrumented I = makeInstrumented(
            S, Mut, scenarioOptions(S, 3000, 1, sim::ReductionMode::None));
        RunState &St = *I.State;
        sim::Workload::Body B = I.W.makeBody();
        B.Check = [&, L = L, Check = std::move(B.Check)](
                      Machine &M, sim::Scheduler &Sch,
                      sim::Scheduler::RunResult R) {
          bool Ok = Check(M, Sch, R);
          if (R != sim::Scheduler::RunResult::Done)
            return Ok;
          const unsigned Obj = St.A->objId();
          graph::EventGraph Derived;
          const graph::EventGraph *G = &St.Mon->graph();
          if (L == Lib::ElimStack) {
            // The checked history is derived from the base stack's events
            // (object 0, registered first) and the exchanger's (object 1).
            for (graph::EventId Id : G->objectEvents(1))
              EXPECT_EQ(G->event(Id).Kind, graph::OpKind::Exchange);
            Derived = spec::buildElimStackGraph(*G, 0, 1, Obj);
            G = &Derived;
          }
          verdictKey(*G, {}, Key);
          Key.push_back(static_cast<uint64_t>(Spec));
          if (!Seen.insert(Key).second)
            return Ok;
          std::vector<graph::EventId> Evs = G->objectEvents(Obj);
          EXPECT_LE(Evs.size(), 7u);
          spec::LinearizationResult Lin =
              spec::findLinearization(*G, Obj, Spec);
          bool Brute = false;
          std::sort(Evs.begin(), Evs.end());
          do
            Brute = checkWitnessOrder(*G, Obj, Spec, Evs).Ok;
          while (!Brute && std::next_permutation(Evs.begin(), Evs.end()));
          EXPECT_EQ(Lin.Found, Brute) << G->str();
          if (Lin.Found) {
            EXPECT_TRUE(checkWitnessOrder(*G, Obj, Spec, Lin.Order).Ok)
                << G->str();
          }
          ++(Brute ? Witnessed : Refuted);
          return Ok;
        };
        sim::exploreSerial(sim::Workload(I.W.options(), std::move(B)));
      }
  EXPECT_GT(Witnessed, 0u);
  EXPECT_GT(Refuted, 0u) << "no history without a linearization was compared";
  std::printf("%llu histories with a witness, %llu without\n",
              static_cast<unsigned long long>(Witnessed),
              static_cast<unsigned long long>(Refuted));
}
