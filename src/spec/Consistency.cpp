//===-- spec/Consistency.cpp - Library consistency conditions --------------===//

#include "spec/Consistency.h"

using namespace compass;
using namespace compass::spec;
using namespace compass::graph;

std::string CheckResult::str() const {
  if (ok())
    return "consistent";
  std::string Out;
  for (size_t I = 0; I != Violations.size(); ++I) {
    if (I)
      Out += "; ";
    Out += Violations[I];
  }
  return Out;
}

namespace {

std::string evStr(const EventGraph &G, EventId Id) {
  return G.event(Id).str(Id);
}

/// The common structural conditions: kinds are legal for the container
/// (and, for a single-owner container, come from the right threads), so
/// edges go producer -> consumer with matching values (MATCHES), matching
/// is injective, every successful consume has a producer, and so ⊆ lhb.
void checkContainerStructure(const EventGraph &G, unsigned ObjId,
                             const std::vector<EventId> &Evs,
                             const ContainerSpec &S, CheckResult &R) {
  // Single-owner rule: the first producer or Back operation names the
  // owner; later ones must come from it and Front ones must not.
  unsigned Owner = ~0u;
  for (EventId Id : Evs) {
    const Event &E = G.event(Id);
    KindRole K = S.role(E.Kind);
    if (K.R == Role::Foreign)
      R.add("KINDS", std::string("foreign event in ") + S.Name + " graph: " +
                         evStr(G, Id));
    else if (S.SingleOwner && K.At == End::Back && Owner == ~0u)
      Owner = E.Thread;
    else if (S.SingleOwner && K.At == End::Back && E.Thread != Owner)
      R.add("OWNER", "owner operations from two threads: " + evStr(G, Id));
  }
  for (EventId Id : Evs) {
    const Event &E = G.event(Id);
    KindRole K = S.role(E.Kind);
    if (S.SingleOwner && K.R != Role::Foreign && K.At == End::Front &&
        E.Thread == Owner)
      R.add("OWNER", "owner stealing from its own deque: " + evStr(G, Id));
  }

  // A match is an so edge of this object from a producer to a consumer.
  auto IsMatch = [&](const SoEdge &Edge) {
    if (!G.isCommitted(Edge.From) || !G.isCommitted(Edge.To))
      return false;
    const Event &From = G.event(Edge.From);
    const Event &To = G.event(Edge.To);
    return From.ObjId == ObjId && To.ObjId == ObjId &&
           From.Kind == S.Produce && S.role(To.Kind).R == Role::Consume;
  };
  for (const SoEdge &Edge : G.so()) {
    if (!G.isCommitted(Edge.From) || !G.isCommitted(Edge.To))
      continue;
    const Event &From = G.event(Edge.From);
    const Event &To = G.event(Edge.To);
    if (From.ObjId != ObjId && To.ObjId != ObjId)
      continue;
    if (From.ObjId != To.ObjId) {
      R.add("SO-OBJ", "so edge across objects: " + evStr(G, Edge.From) +
                          " -> " + evStr(G, Edge.To));
      continue;
    }
    if (!IsMatch(Edge)) {
      R.add("SO-KINDS", "so edge with wrong kinds: " + evStr(G, Edge.From) +
                            " -> " + evStr(G, Edge.To));
      continue;
    }
    // MATCHES: the consumed value is the produced one.
    if (From.V1 != To.V1)
      R.add("MATCHES", "value mismatch: " + evStr(G, Edge.From) + " -> " +
                           evStr(G, Edge.To));
    // so ⊆ lhb: the consumer synchronized with the producer.
    if (!G.lhb(Edge.From, Edge.To))
      R.add("SO-LHB", "consumer does not observe its producer: " +
                          evStr(G, Edge.From) + " -> " + evStr(G, Edge.To));
  }

  // Injectivity, by ascending id: each producer and each consumer in at
  // most one match; every successful consume in one.
  auto Matches = [&](EventId Id, EventId SoEdge::*End) {
    unsigned N = 0;
    for (const SoEdge &Edge : G.so())
      N += Edge.*End == Id && IsMatch(Edge);
    return N;
  };
  for (EventId Id = 0; Id != G.size(); ++Id)
    if (Matches(Id, &SoEdge::From) > 1)
      R.add("INJ", "produced element consumed more than once: " +
                       evStr(G, Id));
  for (EventId Id = 0; Id != G.size(); ++Id)
    if (Matches(Id, &SoEdge::To) > 1)
      R.add("INJ", "consumer matched more than once: " + evStr(G, Id));
  for (EventId Id : Evs)
    if (S.role(G.event(Id).Kind).R == Role::Consume &&
        !Matches(Id, &SoEdge::To))
      R.add("UNMATCHED", "successful consume without a producer: " +
                             evStr(G, Id));
}

/// The ordering axiom.
///
/// FIFO (paper QUEUE-FIFO): for enqueues e' lhb e with (e, d) ∈ so, e' must
/// be dequeued by some d' with (d, d') ∉ lhb.
///
/// LIFO (stack analog, Section 4.1): for (e1, d1) ∈ so and a push e2 with
/// (e1, e2) ∈ lhb and (e2, d1) ∈ lhb, e2 must be popped by some d2 with
/// (d1, d2) ∉ lhb — an element pushed on top of e1 and visible to e1's pop
/// must be gone by then.
void checkOrderingAxiom(const EventGraph &G, unsigned ObjId,
                        const std::vector<EventId> &Evs,
                        const ContainerSpec &S, CheckResult &R) {
  bool Lifo = S.Order == OrderAxiom::Lifo;
  for (const SoEdge &Edge : G.so()) {
    if (!G.isCommitted(Edge.From) || G.event(Edge.From).ObjId != ObjId)
      continue;
    if (G.event(Edge.From).Kind != S.Produce)
      continue;
    EventId E = Edge.From, D = Edge.To;
    for (EventId E2 : Evs) {
      if (E2 == E || G.event(E2).Kind != S.Produce)
        continue;
      bool Covered = Lifo ? (G.lhb(E, E2) && G.lhb(E2, D)) : G.lhb(E2, E);
      if (!Covered)
        continue;
      std::optional<EventId> D2 = G.matchOfProducer(E2);
      const char *Rule = Lifo ? "LIFO" : "FIFO";
      if (!D2) {
        R.add(Rule, "unconsumed " + evStr(G, E2) + " should precede " +
                        evStr(G, E) + " consumed by " + evStr(G, D));
        continue;
      }
      if (G.lhb(D, *D2))
        R.add(Rule, "consume " + evStr(G, D) + " happens before " +
                        evStr(G, *D2) + " violating order of " +
                        evStr(G, E) + " / " + evStr(G, E2));
    }
  }
}

/// Empty-consume axiom (paper QUEUE-EMPDEQ), at either end: for every
/// empty consume d and every produce e with (e, d) ∈ lhb, e must be
/// consumed by a d' with (d, d') ∉ lhb — if something the empty consume
/// knew about were still present, the consume could not have failed.
/// StrictEmpty additionally requires d' to have committed before d.
void checkEmptyAxiom(const EventGraph &G, const std::vector<EventId> &Evs,
                     const ContainerSpec &S, ContainerCheckOptions Opts,
                     CheckResult &R) {
  for (EventId D : Evs) {
    if (S.role(G.event(D).Kind).R != Role::Empty)
      continue;
    for (EventId E : Evs) {
      if (G.event(E).Kind != S.Produce || !G.lhb(E, D))
        continue;
      std::optional<EventId> D2 = G.matchOfProducer(E);
      if (!D2) {
        R.add("EMPTY", "empty consume " + evStr(G, D) +
                           " despite knowing unconsumed " + evStr(G, E));
        continue;
      }
      if (G.lhb(D, *D2))
        R.add("EMPTY", "empty consume " + evStr(G, D) + " happens before " +
                           evStr(G, *D2) + " consuming known " +
                           evStr(G, E));
      if (Opts.StrictEmpty &&
          G.event(*D2).CommitIdx >= G.event(D).CommitIdx)
        R.add("EMPTY-STRICT", "known " + evStr(G, E) +
                                  " consumed only after empty consume " +
                                  evStr(G, D));
    }
  }
}

} // namespace

CheckResult spec::checkConsistent(const EventGraph &G, unsigned ObjId,
                                  SeqSpec Spec, ContainerCheckOptions Opts) {
  const ContainerSpec &S = containerSpec(Spec);
  CheckResult R;
  std::string WF = G.checkWellFormed();
  if (!WF.empty())
    R.add("WELLFORMED", WF);
  std::vector<EventId> Evs = G.objectEvents(ObjId);
  checkContainerStructure(G, ObjId, Evs, S, R);
  if (S.Order != OrderAxiom::None)
    checkOrderingAxiom(G, ObjId, Evs, S, R);
  checkEmptyAxiom(G, Evs, S, Opts, R);
  return R;
}

CheckResult spec::checkExchangerConsistent(const EventGraph &G,
                                           unsigned ObjId) {
  CheckResult R;
  std::string WF = G.checkWellFormed();
  if (!WF.empty())
    R.add("WELLFORMED", WF);

  std::vector<EventId> Evs = G.objectEvents(ObjId);
  for (EventId Id : Evs) {
    const Event &E = G.event(Id);
    if (E.Kind != OpKind::Exchange) {
      R.add("KINDS", "foreign event in exchanger graph: " + evStr(G, Id));
      continue;
    }
    if (E.V1 == BottomVal)
      R.add("ARG", "exchange of ⊥: " + evStr(G, Id));

    std::vector<EventId> Succ = G.soSuccessors(Id);
    std::vector<EventId> Pred = G.soPredecessors(Id);

    if (E.V2 == BottomVal) {
      // Failed exchange: unmatched.
      if (!Succ.empty() || !Pred.empty())
        R.add("FAIL-MATCHED", "failed exchange has so edges: " +
                                  evStr(G, Id));
      continue;
    }

    // Successful exchange: exactly one partner, symmetric edges.
    if (Succ.size() != 1 || Pred.size() != 1 || Succ[0] != Pred[0]) {
      R.add("PAIR", "successful exchange not uniquely paired: " +
                        evStr(G, Id));
      continue;
    }
    EventId P = Succ[0];
    const Event &Partner = G.event(P);
    if (Partner.Kind != OpKind::Exchange || Partner.ObjId != ObjId) {
      R.add("PAIR", "partner is not an exchange on this object: " +
                        evStr(G, P));
      continue;
    }
    if (Partner.V1 != E.V2 || Partner.V2 != E.V1)
      R.add("CROSS", "values do not cross: " + evStr(G, Id) + " / " +
                         evStr(G, P));
    if (Partner.Thread == E.Thread)
      R.add("SELF", "thread exchanged with itself: " + evStr(G, Id));

    // Atomic pairing (Section 4.2): the two commits are adjacent, and the
    // later commit (the helper) observes the earlier (the helpee).
    uint32_t CA = E.CommitIdx, CB = Partner.CommitIdx;
    if (CA + 1 != CB && CB + 1 != CA)
      R.add("ATOMIC-PAIR", "pair not committed atomically: " +
                               evStr(G, Id) + " / " + evStr(G, P));
    EventId Helpee = CA < CB ? Id : P;
    EventId Helper = CA < CB ? P : Id;
    if (!G.lhb(Helpee, Helper))
      R.add("HELPER-LHB", "helper does not observe helpee: " +
                              evStr(G, Helper));
  }
  return R;
}

CheckResult spec::checkAbsState(const EventGraph &G, unsigned ObjId,
                                SeqSpec Spec, AbsStateOptions Opts) {
  const ContainerSpec &S = containerSpec(Spec);
  CheckResult R;
  SeqState State;
  for (EventId Id : G.objectEvents(ObjId)) {
    const Event &E = G.event(Id);
    switch (State.apply(S, E)) {
    case SeqStep::Ok:
      break;
    case SeqStep::Foreign:
      R.add("ABS-KIND", "foreign event kind: " + evStr(G, Id));
      break;
    case SeqStep::Underflow:
      R.add("ABS", "consume from empty abstract state: " + evStr(G, Id));
      break;
    case SeqStep::Mismatch:
      R.add("ABS", "abstract state yields " +
                       std::to_string(State.at(S.role(E.Kind).At)) +
                       " but operation returned: " + evStr(G, Id));
      break;
    case SeqStep::NotEmpty:
      if (Opts.RequireTrueEmpty)
        R.add("ABS-EMPTY", "empty consume while abstract state holds " +
                               std::to_string(State.size()) +
                               " elements: " + evStr(G, Id));
      break;
    }
  }
  return R;
}
