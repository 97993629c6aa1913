//===-- tests/SpecTest.cpp - Consistency & linearization checker tests -----===//
//
// Validates the spec layer on hand-crafted event graphs: one table-driven
// suite makes every container rule of Figure 2 / Sections 3.3, 4.2 fire
// (and hold) at every end of the queue, the stack and the work-stealing
// deque, each exchanger condition is exercised with a positive and a
// negative instance, and the LAT_hist linearization search is tested on
// histories with known answers.
//
//===----------------------------------------------------------------------===//

#include "spec/Consistency.h"
#include "spec/Linearization.h"

#include <gtest/gtest.h>

using namespace compass;
using namespace compass::graph;
using namespace compass::spec;

namespace {

/// Small DSL for building graphs in tests.
struct GraphBuilder {
  EventGraph G;
  uint32_t NextIdx = 0;

  EventId add(OpKind K, rmc::Value V1,
              std::initializer_list<EventId> Seen = {}, unsigned Thread = 0,
              rmc::Value V2 = 0, unsigned Obj = 0) {
    EventId Id = G.reserve();
    Event E;
    E.Kind = K;
    E.V1 = V1;
    E.V2 = V2;
    E.ObjId = Obj;
    E.Thread = Thread;
    E.LogView.insert(Id);
    for (EventId S : Seen) {
      E.LogView.insert(S);
      // Keep views transitively closed, as the monitor does.
      G.event(S).LogView.forEach([&](uint32_t X) { E.LogView.insert(X); });
    }
    G.commit(Id, std::move(E));
    return Id;
  }

  void so(EventId A, EventId B) { G.addSo(A, B); }
};

bool hasViolation(const CheckResult &R, const char *Rule) {
  for (const std::string &V : R.Violations)
    if (V.find(Rule) != std::string::npos)
      return true;
  return false;
}

/// How many violations name exactly \p Rule ("EMPTY" does not count
/// "EMPTY-STRICT").
unsigned countRule(const CheckResult &R, const std::string &Rule) {
  unsigned N = 0;
  for (const std::string &V : R.Violations)
    N += V.rfind(Rule + ": ", 0) == 0;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// ExchangerConsistent
//===----------------------------------------------------------------------===//

TEST(ExchangerConsistencyTest, MatchedPairConsistent) {
  GraphBuilder B;
  EventId X1 = B.add(OpKind::Exchange, 1, {}, 0, /*V2=*/2);
  EventId X2 = B.add(OpKind::Exchange, 2, {X1}, 1, /*V2=*/1);
  B.so(X1, X2);
  B.so(X2, X1);
  auto R = checkExchangerConsistent(B.G, 0);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(ExchangerConsistencyTest, FailedExchangeConsistent) {
  GraphBuilder B;
  B.add(OpKind::Exchange, 1, {}, 0, BottomVal);
  auto R = checkExchangerConsistent(B.G, 0);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST(ExchangerConsistencyTest, ValuesMustCross) {
  GraphBuilder B;
  EventId X1 = B.add(OpKind::Exchange, 1, {}, 0, /*V2=*/9); // Wrong.
  EventId X2 = B.add(OpKind::Exchange, 2, {X1}, 1, /*V2=*/1);
  B.so(X1, X2);
  B.so(X2, X1);
  EXPECT_TRUE(hasViolation(checkExchangerConsistent(B.G, 0), "CROSS"));
}

TEST(ExchangerConsistencyTest, SelfExchangeRejected) {
  GraphBuilder B;
  EventId X1 = B.add(OpKind::Exchange, 1, {}, /*Thread=*/0, 2);
  EventId X2 = B.add(OpKind::Exchange, 2, {X1}, /*Thread=*/0, 1);
  B.so(X1, X2);
  B.so(X2, X1);
  EXPECT_TRUE(hasViolation(checkExchangerConsistent(B.G, 0), "SELF"));
}

TEST(ExchangerConsistencyTest, NonAdjacentCommitsRejected) {
  GraphBuilder B;
  EventId X1 = B.add(OpKind::Exchange, 1, {}, 0, 2);
  B.add(OpKind::Exchange, 7, {}, 2, BottomVal); // Intervening commit.
  EventId X2 = B.add(OpKind::Exchange, 2, {X1}, 1, 1);
  B.so(X1, X2);
  B.so(X2, X1);
  EXPECT_TRUE(
      hasViolation(checkExchangerConsistent(B.G, 0), "ATOMIC-PAIR"));
}

TEST(ExchangerConsistencyTest, HalfPairRejected) {
  GraphBuilder B;
  EventId X1 = B.add(OpKind::Exchange, 1, {}, 0, 2);
  EventId X2 = B.add(OpKind::Exchange, 2, {X1}, 1, 1);
  B.so(X1, X2); // Missing the symmetric edge.
  EXPECT_TRUE(hasViolation(checkExchangerConsistent(B.G, 0), "PAIR"));
}

TEST(ExchangerConsistencyTest, FailedExchangeWithEdgesRejected) {
  GraphBuilder B;
  EventId X1 = B.add(OpKind::Exchange, 1, {}, 0, BottomVal);
  EventId X2 = B.add(OpKind::Exchange, 2, {X1}, 1, 1);
  B.so(X1, X2);
  EXPECT_TRUE(
      hasViolation(checkExchangerConsistent(B.G, 0), "FAIL-MATCHED"));
}

//===----------------------------------------------------------------------===//
// Every container rule at every end (table-driven)
//===----------------------------------------------------------------------===//

namespace {

/// One end of one container. The kinds are spelled out here rather than
/// read from spec::ContainerSpecs, so the suite checks that table too.
struct EndCase {
  const char *Name;
  SeqSpec Spec;
  OpKind Produce, Consume, Empty;
  unsigned Consumer; ///< A thread that may consume here; producers run on
                     ///< thread 0, the deque's owner.
  bool SingleOwner;  ///< Consuming from the other thread breaks OWNER.
  bool TakesNewest;  ///< The LIFO end: stack top, deque bottom.
  OrderAxiom Order;
};

const EndCase EndCases[] = {
    {"queue", SeqSpec::Queue, OpKind::Enq, OpKind::DeqOk, OpKind::DeqEmpty, 1,
     false, false, OrderAxiom::Fifo},
    {"stack", SeqSpec::Stack, OpKind::Push, OpKind::PopOk, OpKind::PopEmpty,
     1, false, true, OrderAxiom::Lifo},
    {"deque_take", SeqSpec::WsDeque, OpKind::Push, OpKind::PopOk,
     OpKind::PopEmpty, 0, true, true, OrderAxiom::None},
    {"deque_steal", SeqSpec::WsDeque, OpKind::Push, OpKind::Steal,
     OpKind::StealEmpty, 1, true, false, OrderAxiom::None},
};

class ContainerRuleTest : public ::testing::TestWithParam<EndCase> {
protected:
  const EndCase &C = GetParam();
  GraphBuilder B;

  EventId produce(rmc::Value V, std::initializer_list<EventId> Seen = {}) {
    return B.add(C.Produce, V, Seen, 0);
  }
  EventId consume(rmc::Value V, std::initializer_list<EventId> Seen = {}) {
    return B.add(C.Consume, V, Seen, C.Consumer);
  }
  EventId empty(std::initializer_list<EventId> Seen = {}) {
    return B.add(C.Empty, EmptyVal, Seen, C.Consumer);
  }
  CheckResult graph(ContainerCheckOptions O = {}) {
    return checkConsistent(B.G, 0, C.Spec, O);
  }
  CheckResult abs(AbsStateOptions O = {}) {
    return checkAbsState(B.G, 0, C.Spec, O);
  }
};

} // namespace

TEST_P(ContainerRuleTest, TableAgreesWithTheCase) {
  const ContainerSpec &S = containerSpec(C.Spec);
  End At = C.TakesNewest ? End::Back : End::Front;
  EXPECT_EQ(S.Produce, C.Produce);
  EXPECT_EQ(S.Consume[unsigned(At)], C.Consume);
  EXPECT_EQ(S.Empty[unsigned(At)], C.Empty);
  EXPECT_EQ(S.SingleOwner, C.SingleOwner);
  EXPECT_EQ(S.Order, C.Order);
}

TEST_P(ContainerRuleTest, EmptyGraphIsConsistent) {
  EXPECT_TRUE(graph().ok()) << graph().str();
  EXPECT_TRUE(abs().ok()) << abs().str();
}

TEST_P(ContainerRuleTest, MatchedPairIsConsistent) {
  EventId P = produce(1);
  B.so(P, consume(1, {P}));
  EXPECT_TRUE(graph().ok()) << graph().str();
  EXPECT_TRUE(abs().ok()) << abs().str();
}

TEST_P(ContainerRuleTest, ForeignKindFiresKinds) {
  // An exchange, and the producer kind of another container.
  B.add(OpKind::Exchange, 1, {}, 0, 2);
  B.add(C.Spec == SeqSpec::Queue ? OpKind::Push : OpKind::Enq, 1, {}, 0);
  EXPECT_EQ(countRule(graph(), "KINDS"), 2u);
  EXPECT_EQ(countRule(abs(), "ABS-KIND"), 2u);
}

TEST_P(ContainerRuleTest, SoIntoEmptyConsumeFiresSoKinds) {
  EventId P = produce(1);
  B.so(P, empty({P}));
  EXPECT_EQ(countRule(graph(), "SO-KINDS"), 1u);
}

TEST_P(ContainerRuleTest, ValueMismatchFiresMatches) {
  EventId P = produce(1);
  B.so(P, consume(2, {P}));
  EXPECT_EQ(countRule(graph(), "MATCHES"), 1u);
  EXPECT_EQ(countRule(abs(), "ABS"), 1u);
}

TEST_P(ContainerRuleTest, UnobservedProducerFiresSoLhb) {
  EventId P = produce(1);
  B.so(P, consume(1));
  EXPECT_EQ(countRule(graph(), "SO-LHB"), 1u);
}

TEST_P(ContainerRuleTest, ElementConsumedTwiceFiresInj) {
  EventId P = produce(1);
  B.so(P, consume(1, {P}));
  B.so(P, consume(1, {P}));
  EXPECT_EQ(countRule(graph(), "INJ"), 1u);
}

TEST_P(ContainerRuleTest, ConsumeOfTwoProducersFiresInj) {
  EventId P1 = produce(1);
  EventId P2 = produce(1, {P1});
  EventId D = consume(1, {P2});
  B.so(P1, D);
  B.so(P2, D);
  EXPECT_EQ(countRule(graph(), "INJ"), 1u) << graph().str();
}

TEST_P(ContainerRuleTest, ConsumeWithoutProducerFiresUnmatched) {
  consume(1);
  EXPECT_EQ(countRule(graph(), "UNMATCHED"), 1u);
  EXPECT_EQ(countRule(abs(), "ABS"), 1u); // Consume from the empty state.
}

TEST_P(ContainerRuleTest, EmptyConsumeKnowingUnconsumedFiresEmpty) {
  EventId P = produce(1);
  empty({P});
  EXPECT_EQ(countRule(graph(), "EMPTY"), 1u);
}

TEST_P(ContainerRuleTest, EmptyConsumeAfterConsumptionIsConsistent) {
  EventId P = produce(1);
  B.so(P, consume(1, {P}));
  empty({P});
  EXPECT_TRUE(graph().ok()) << graph().str();
  EXPECT_TRUE(abs().ok()) << abs().str();
}

TEST_P(ContainerRuleTest, EmptyConsumeBeforeLaterConsumerFiresStrictOnly) {
  EventId P = produce(1);
  empty({P});
  B.so(P, consume(1, {P}));
  EXPECT_TRUE(graph().ok()) << graph().str();
  ContainerCheckOptions Strict;
  Strict.StrictEmpty = true;
  EXPECT_EQ(countRule(graph(Strict), "EMPTY-STRICT"), 1u);
}

TEST_P(ContainerRuleTest, EmptyConsumeOnNonEmptyStateFiresTrueEmptyOnly) {
  produce(1);
  empty();
  EXPECT_TRUE(abs().ok()) << abs().str();
  AbsStateOptions Strict;
  Strict.RequireTrueEmpty = true;
  EXPECT_EQ(countRule(abs(Strict), "ABS-EMPTY"), 1u);
}

TEST_P(ContainerRuleTest, ConsumingTheNewerOfTwoNeedsFifoOnly) {
  // p1 lhb p2 and only p2 is consumed: QUEUE-FIFO. In commit order this
  // takes the newest, legal at the stack's top and the deque's bottom.
  EventId P1 = produce(1);
  EventId P2 = produce(2, {P1});
  B.so(P2, consume(2, {P2}));
  EXPECT_EQ(countRule(graph(), "FIFO"), C.Order == OrderAxiom::Fifo ? 1u : 0u);
  EXPECT_EQ(graph().ok(), C.Order != OrderAxiom::Fifo) << graph().str();
  EXPECT_EQ(abs().ok(), C.TakesNewest) << abs().str();
}

TEST_P(ContainerRuleTest, ConsumingTheNewerOfTwoUnrelatedIsConsistent) {
  // No lhb between the producers, so consuming only the second breaks no
  // order axiom (the weak HW-queue behaviour).
  produce(1);
  EventId P2 = produce(2);
  B.so(P2, consume(2, {P2}));
  EXPECT_TRUE(graph().ok()) << graph().str();
}

TEST_P(ContainerRuleTest, ConsumingBothOldestFirstIsConsistent) {
  // p1 lhb p2; a consume unaware of p2 takes p1, then one that saw it
  // takes p2. The graph holds at every end, before and after the second
  // consume; only the ends that take the oldest replay it in commit order.
  EventId P1 = produce(1);
  EventId P2 = produce(2, {P1});
  EventId D1 = consume(1, {P1});
  B.so(P1, D1);
  EXPECT_TRUE(graph().ok()) << graph().str();
  B.so(P2, consume(2, {P2, D1}));
  EXPECT_TRUE(graph().ok()) << graph().str();
  EXPECT_EQ(abs().ok(), !C.TakesNewest) << abs().str();
}

TEST_P(ContainerRuleTest, ConsumingBothNewestFirstNeedsFifoOnly) {
  // p1 lhb p2, and p2's consume lhb p1's: the stack's order, not the
  // queue's.
  EventId P1 = produce(1);
  EventId P2 = produce(2, {P1});
  EventId D2 = consume(2, {P2});
  B.so(P2, D2);
  B.so(P1, consume(1, {P1, D2}));
  EXPECT_EQ(countRule(graph(), "FIFO"), C.Order == OrderAxiom::Fifo ? 1u : 0u);
  EXPECT_EQ(graph().ok(), C.Order != OrderAxiom::Fifo) << graph().str();
  EXPECT_EQ(abs().ok(), C.TakesNewest) << abs().str();
}

TEST_P(ContainerRuleTest, ConsumingTheOlderPastANewerNeedsLifoOnly) {
  // p1 lhb p2 lhb d, d consumes p1 and p2 stays: the stack analog. An
  // owner take of the deque's top breaks the abstract state, not the graph.
  EventId P1 = produce(1);
  EventId P2 = produce(2, {P1});
  B.so(P1, consume(1, {P2}));
  EXPECT_EQ(countRule(graph(), "LIFO"), C.Order == OrderAxiom::Lifo ? 1u : 0u);
  EXPECT_EQ(graph().ok(), C.Order != OrderAxiom::Lifo) << graph().str();
  EXPECT_EQ(abs().ok(), !C.TakesNewest) << abs().str();
}

TEST_P(ContainerRuleTest, ConsumesFromTheOtherSideFireOwner) {
  EventId P = produce(1);
  unsigned Other = 1 - C.Consumer;
  B.so(P, B.add(C.Consume, 1, {P}, Other));
  B.add(C.Empty, EmptyVal, {}, Other);
  EXPECT_EQ(countRule(graph(), "OWNER"), C.SingleOwner ? 2u : 0u)
      << graph().str();
}

INSTANTIATE_TEST_SUITE_P(
    Ends, ContainerRuleTest, ::testing::ValuesIn(EndCases),
    [](const ::testing::TestParamInfo<EndCase> &I) { return I.param.Name; });

//===----------------------------------------------------------------------===//
// Linearization search (LAT_hist_hb)
//===----------------------------------------------------------------------===//

TEST(LinearizationTest, EmptyHistoryTriviallyLinearizable) {
  EventGraph G;
  auto R = findLinearization(G, 0, SeqSpec::Stack);
  EXPECT_TRUE(R.Found);
  EXPECT_TRUE(R.Order.empty());
}

TEST(LinearizationTest, SimpleStackHistory) {
  GraphBuilder B;
  EventId P1 = B.add(OpKind::Push, 1);
  EventId O1 = B.add(OpKind::PopOk, 1, {P1}, 1);
  B.so(P1, O1);
  auto R = findLinearization(B.G, 0, SeqSpec::Stack);
  ASSERT_TRUE(R.Found);
  ASSERT_EQ(R.Order.size(), 2u);
  EXPECT_EQ(R.Order[0], P1);
  EXPECT_EQ(R.Order[1], O1);
}

TEST(LinearizationTest, ReorderingAgainstCommitOrderAllowed) {
  // Commit order: pop(2), push(2) — but lhb does not order them, so the
  // search may reorder (the LAT_hist freedom of Section 3.3).
  GraphBuilder B;
  EventId O2 = B.add(OpKind::PopOk, 2, {}, 1);
  EventId P2 = B.add(OpKind::Push, 2, {}, 0);
  B.so(P2, O2);
  // NOTE: so here is not within lhb; the graph is odd but the search only
  // uses lhb and values.
  auto R = findLinearization(B.G, 0, SeqSpec::Stack);
  EXPECT_TRUE(R.Found);
}

TEST(LinearizationTest, LhbConstraintsRespected) {
  // pop(eps) that happens-after push(1) with no pop of 1 first: no
  // linearization (the empty pop cannot be placed).
  GraphBuilder B;
  EventId P1 = B.add(OpKind::Push, 1);
  B.add(OpKind::PopEmpty, EmptyVal, {P1}, 1);
  auto R = findLinearization(B.G, 0, SeqSpec::Stack);
  EXPECT_FALSE(R.Found);
}

TEST(LinearizationTest, EmptyPopPlacedBeforePush) {
  // Same events without the lhb edge: pop(eps) can linearize first.
  GraphBuilder B;
  B.add(OpKind::Push, 1);
  B.add(OpKind::PopEmpty, EmptyVal, {}, 1);
  auto R = findLinearization(B.G, 0, SeqSpec::Stack);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(B.G.event(R.Order[0]).Kind, OpKind::PopEmpty);
}

TEST(LinearizationTest, MismatchedPopValueNotLinearizable) {
  GraphBuilder B;
  B.add(OpKind::Push, 1);
  B.add(OpKind::PopOk, 2, {}, 1); // 2 was never pushed.
  auto R = findLinearization(B.G, 0, SeqSpec::Stack);
  EXPECT_FALSE(R.Found);
}

TEST(LinearizationTest, LifoOrderRequired) {
  // push1 lhb push2 lhb pop(1) lhb pop(2): as a stack this needs popping
  // 2 before 1, but lhb forces pop(1) first -> not linearizable.
  GraphBuilder B;
  EventId P1 = B.add(OpKind::Push, 1);
  EventId P2 = B.add(OpKind::Push, 2, {P1});
  EventId O1 = B.add(OpKind::PopOk, 1, {P2});
  B.add(OpKind::PopOk, 2, {O1});
  auto R = findLinearization(B.G, 0, SeqSpec::Stack);
  EXPECT_FALSE(R.Found);
}

TEST(LinearizationTest, QueueSpecFifo) {
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1);
  EventId E2 = B.add(OpKind::Enq, 2, {E1});
  EventId D1 = B.add(OpKind::DeqOk, 1, {E2});
  B.add(OpKind::DeqOk, 2, {D1});
  auto R = findLinearization(B.G, 0, SeqSpec::Queue);
  EXPECT_TRUE(R.Found);
}

TEST(LinearizationTest, QueueSpecRejectsLifo) {
  // Dequeues observe both enqueues and pop in LIFO order: not a queue.
  GraphBuilder B;
  EventId E1 = B.add(OpKind::Enq, 1);
  EventId E2 = B.add(OpKind::Enq, 2, {E1});
  EventId D2 = B.add(OpKind::DeqOk, 2, {E2});
  B.add(OpKind::DeqOk, 1, {D2});
  auto R = findLinearization(B.G, 0, SeqSpec::Queue);
  EXPECT_FALSE(R.Found);
}

TEST(LinearizationTest, SearchReportsEffort) {
  GraphBuilder B;
  EventId P1 = B.add(OpKind::Push, 1);
  EventId O1 = B.add(OpKind::PopOk, 1, {P1});
  B.so(P1, O1);
  auto R = findLinearization(B.G, 0, SeqSpec::Stack);
  EXPECT_GT(R.StatesExplored, 0u);
}
