//===-- tests/GraphTest.cpp - Event graph unit tests ------------------------===//

#include "graph/Event.h"
#include "graph/EventGraph.h"

#include <gtest/gtest.h>

using namespace compass;
using namespace compass::graph;

namespace {

/// Builds a committed event with the given logical view (self included
/// automatically).
Event mkEvent(OpKind K, rmc::Value V, unsigned Obj, unsigned Thread,
              uint32_t CommitIdx, EventId Self,
              std::initializer_list<EventId> Seen = {}) {
  Event E;
  E.Kind = K;
  E.V1 = V;
  E.ObjId = Obj;
  E.Thread = Thread;
  E.CommitIdx = CommitIdx;
  E.LogView.insert(Self);
  for (EventId Id : Seen)
    E.LogView.insert(Id);
  return E;
}

} // namespace

TEST(EventTest, KindNames) {
  EXPECT_STREQ(opKindName(OpKind::Enq), "Enq");
  EXPECT_STREQ(opKindName(OpKind::DeqEmpty), "Deq(eps)");
  EXPECT_STREQ(opKindName(OpKind::Exchange), "Xchg");
}

TEST(EventTest, StrShowsPayloadAndSentinels) {
  Event E = mkEvent(OpKind::Exchange, 5, 0, 2, 3, 0);
  E.V2 = BottomVal;
  std::string S = E.str(0);
  EXPECT_NE(S.find("Xchg(5, bot)"), std::string::npos);
  EXPECT_NE(S.find("T2"), std::string::npos);
}

TEST(EventGraphTest, ReserveCommitLifecycle) {
  EventGraph G;
  EventId A = G.reserve();
  EXPECT_FALSE(G.isCommitted(A));
  G.commit(A, mkEvent(OpKind::Enq, 1, 0, 0, 0, A));
  EXPECT_TRUE(G.isCommitted(A));
  EXPECT_EQ(G.event(A).Kind, OpKind::Enq);
  EXPECT_EQ(G.event(A).CommitIdx, 0u);
  EventId B = G.reserve();
  G.commit(B, mkEvent(OpKind::Enq, 2, 0, 0, 0, B, {A}));
  EXPECT_EQ(G.event(B).CommitIdx, 1u) << "commit order is assigned";
}

TEST(EventGraphTest, RetractedIdsStayInvisible) {
  EventGraph G;
  EventId A = G.reserve();
  G.retract(A);
  EXPECT_FALSE(G.isCommitted(A));
  EXPECT_TRUE(G.committedEvents().empty());
}

TEST(EventGraphTest, LhbFollowsLogicalViews) {
  EventGraph G;
  EventId A = G.reserve(), B = G.reserve(), C = G.reserve();
  G.commit(A, mkEvent(OpKind::Enq, 1, 0, 0, 0, A));
  G.commit(B, mkEvent(OpKind::Enq, 2, 0, 0, 0, B, {A}));
  G.commit(C, mkEvent(OpKind::Enq, 3, 0, 1, 0, C));
  EXPECT_TRUE(G.lhb(A, B));
  EXPECT_FALSE(G.lhb(B, A));
  EXPECT_FALSE(G.lhb(A, C));
  EXPECT_FALSE(G.lhb(A, A)) << "lhb is irreflexive";
}

TEST(EventGraphTest, SoEdgesAndMatching) {
  EventGraph G;
  EventId E1 = G.reserve(), D1 = G.reserve();
  G.commit(E1, mkEvent(OpKind::Enq, 1, 0, 0, 0, E1));
  G.commit(D1, mkEvent(OpKind::DeqOk, 1, 0, 1, 0, D1, {E1}));
  G.addSo(E1, D1);
  ASSERT_TRUE(G.matchOfProducer(E1).has_value());
  EXPECT_EQ(*G.matchOfProducer(E1), D1);
  ASSERT_TRUE(G.matchOfConsumer(D1).has_value());
  EXPECT_EQ(*G.matchOfConsumer(D1), E1);
  EXPECT_FALSE(G.matchOfProducer(D1).has_value());
}

TEST(EventGraphTest, ObjectProjection) {
  EventGraph G;
  EventId A = G.reserve(), B = G.reserve();
  G.commit(A, mkEvent(OpKind::Enq, 1, /*Obj=*/0, 0, 0, A));
  G.commit(B, mkEvent(OpKind::Push, 2, /*Obj=*/1, 0, 0, B));
  EXPECT_EQ(G.objectEvents(0).size(), 1u);
  EXPECT_EQ(G.objectEvents(1).size(), 1u);
  EXPECT_EQ(G.objectEvents(0)[0], A);
  EXPECT_EQ(G.committedEvents().size(), 2u);
}

TEST(EventGraphTest, WellFormedAcceptsGoodGraph) {
  EventGraph G;
  EventId A = G.reserve(), B = G.reserve();
  G.commit(A, mkEvent(OpKind::Enq, 1, 0, 0, 0, A));
  G.commit(B, mkEvent(OpKind::DeqOk, 1, 0, 1, 0, B, {A}));
  G.addSo(A, B);
  EXPECT_EQ(G.checkWellFormed(), "");
}

TEST(EventGraphTest, WellFormedRejectsMissingSelf) {
  EventGraph G;
  EventId A = G.reserve();
  Event E = mkEvent(OpKind::Enq, 1, 0, 0, 0, A);
  E.LogView.clear(); // Drop the self-observation.
  G.commit(A, std::move(E));
  EXPECT_NE(G.checkWellFormed().find("does not observe itself"),
            std::string::npos);
}

TEST(EventGraphTest, WellFormedRejectsFutureObservation) {
  EventGraph G;
  EventId A = G.reserve(), B = G.reserve();
  // A claims to observe B, which commits later.
  G.commit(A, mkEvent(OpKind::Enq, 1, 0, 0, 0, A, {B}));
  G.commit(B, mkEvent(OpKind::Enq, 2, 0, 0, 0, B));
  EXPECT_NE(G.checkWellFormed().find("later-committed"), std::string::npos);
}

TEST(EventGraphTest, WellFormedRejectsNonTransitiveViews) {
  EventGraph G;
  EventId A = G.reserve(), B = G.reserve(), C = G.reserve();
  G.commit(A, mkEvent(OpKind::Enq, 1, 0, 0, 0, A));
  G.commit(B, mkEvent(OpKind::Enq, 2, 0, 0, 0, B, {A}));
  G.commit(C, mkEvent(OpKind::Enq, 3, 0, 0, 0, C, {B})); // Missing A.
  EXPECT_NE(G.checkWellFormed().find("transitively"), std::string::npos);
}

TEST(EventGraphTest, WellFormedIgnoresUncommittedViewIds) {
  EventGraph G;
  EventId A = G.reserve(), R = G.reserve();
  G.retract(R);
  G.commit(A, mkEvent(OpKind::Enq, 1, 0, 0, 0, A, {R}));
  EXPECT_EQ(G.checkWellFormed(), "")
      << "retracted ids in views carry no information";
}

TEST(EventGraphTest, AddRawPreservesCommitIndices) {
  EventGraph G;
  G.addRaw(5, mkEvent(OpKind::Push, 1, 0, 0, /*CommitIdx=*/10, 5));
  G.addRaw(2, mkEvent(OpKind::PopOk, 1, 0, 1, /*CommitIdx=*/11, 2, {5}));
  auto Evs = G.committedEvents();
  ASSERT_EQ(Evs.size(), 2u);
  EXPECT_EQ(Evs[0], 5u);
  EXPECT_EQ(Evs[1], 2u);
  // Future reserve+commit continues after the raw indices.
  EventId C = G.reserve();
  G.commit(C, mkEvent(OpKind::Push, 2, 0, 0, 0, C));
  EXPECT_EQ(G.event(C).CommitIdx, 12u);
}

TEST(EventGraphTest, StrListsEventsAndEdges) {
  EventGraph G;
  EventId A = G.reserve(), B = G.reserve();
  G.commit(A, mkEvent(OpKind::Enq, 1, 0, 0, 0, A));
  G.commit(B, mkEvent(OpKind::DeqOk, 1, 0, 1, 0, B, {A}));
  G.addSo(A, B);
  std::string S = G.str();
  EXPECT_NE(S.find("Enq(1)"), std::string::npos);
  EXPECT_NE(S.find("so: #0 -> #1"), std::string::npos);
}
