//===-- spec/Consistency.cpp - Library consistency conditions --------------===//

#include "spec/Consistency.h"

#include <deque>
#include <map>

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

/// Shared machinery for queue and stack graph checks: the two containers
/// differ only in event kinds and in the ordering axiom (FIFO vs LIFO).
struct ContainerShape {
  OpKind Produce;    ///< Enq / Push.
  OpKind ConsumeOk;  ///< DeqOk / PopOk.
  OpKind ConsumeEmp; ///< DeqEmpty / PopEmpty.
  bool Lifo;         ///< false: FIFO (queue); true: LIFO (stack).
  const char *Name;  ///< "queue" / "stack".
};

std::string evStr(const EventGraph &G, EventId Id) {
  return G.event(Id).str(Id);
}

/// The common structural conditions: kinds are legal for the container,
/// so edges go producer -> consumer with matching values (MATCHES),
/// matching is injective, every successful consume has a producer, and
/// so ⊆ lhb.
void checkContainerStructure(const EventGraph &G, unsigned ObjId,
                             const ContainerShape &S, CheckResult &R) {
  std::vector<EventId> Evs = G.objectEvents(ObjId);
  std::map<EventId, unsigned> ProducerMatches, ConsumerMatches;

  for (EventId Id : Evs) {
    const Event &E = G.event(Id);
    if (E.Kind != S.Produce && E.Kind != S.ConsumeOk &&
        E.Kind != S.ConsumeEmp)
      R.add("KINDS", std::string("foreign event in ") + S.Name + " graph: " +
                         evStr(G, Id));
  }

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
    if (From.Kind != S.Produce || To.Kind != S.ConsumeOk) {
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
    ++ProducerMatches[Edge.From];
    ++ConsumerMatches[Edge.To];
  }

  for (auto &[Id, N] : ProducerMatches)
    if (N > 1)
      R.add("INJ", "produced element consumed more than once: " +
                       evStr(G, Id));
  for (auto &[Id, N] : ConsumerMatches)
    if (N > 1)
      R.add("INJ", "consumer matched more than once: " + evStr(G, Id));
  for (EventId Id : Evs)
    if (G.event(Id).Kind == S.ConsumeOk && !ConsumerMatches.count(Id))
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
                        const ContainerShape &S, CheckResult &R) {
  std::vector<EventId> Evs = G.objectEvents(ObjId);
  for (const SoEdge &Edge : G.so()) {
    if (!G.isCommitted(Edge.From) || G.event(Edge.From).ObjId != ObjId)
      continue;
    if (G.event(Edge.From).Kind != S.Produce)
      continue;
    EventId E = Edge.From, D = Edge.To;
    for (EventId E2 : Evs) {
      if (E2 == E || G.event(E2).Kind != S.Produce)
        continue;
      bool Covered = S.Lifo ? (G.lhb(E, E2) && G.lhb(E2, D))
                            : G.lhb(E2, E);
      if (!Covered)
        continue;
      std::optional<EventId> D2 = G.matchOfProducer(E2);
      const char *Rule = S.Lifo ? "LIFO" : "FIFO";
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

/// Empty-consume axiom (paper QUEUE-EMPDEQ): for every empty consume d and
/// every produce e with (e, d) ∈ lhb, e must be consumed by a d' with
/// (d, d') ∉ lhb — if something the empty consume knew about were still
/// present, the consume could not have failed. StrictEmpty additionally
/// requires d' to have committed before d.
void checkEmptyAxiom(const EventGraph &G, unsigned ObjId,
                     const ContainerShape &S, ContainerCheckOptions Opts,
                     CheckResult &R) {
  std::vector<EventId> Evs = G.objectEvents(ObjId);
  for (EventId D : Evs) {
    if (G.event(D).Kind != S.ConsumeEmp)
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

CheckResult checkContainer(const EventGraph &G, unsigned ObjId,
                           const ContainerShape &S,
                           ContainerCheckOptions Opts) {
  CheckResult R;
  std::string WF = G.checkWellFormed();
  if (!WF.empty())
    R.add("WELLFORMED", WF);
  checkContainerStructure(G, ObjId, S, R);
  checkOrderingAxiom(G, ObjId, S, R);
  checkEmptyAxiom(G, ObjId, S, Opts, R);
  return R;
}

} // namespace

CheckResult spec::checkQueueConsistent(const EventGraph &G, unsigned ObjId,
                                       ContainerCheckOptions Opts) {
  ContainerShape S{OpKind::Enq, OpKind::DeqOk, OpKind::DeqEmpty,
                   /*Lifo=*/false, "queue"};
  return checkContainer(G, ObjId, S, Opts);
}

CheckResult spec::checkStackConsistent(const EventGraph &G, unsigned ObjId,
                                       ContainerCheckOptions Opts) {
  ContainerShape S{OpKind::Push, OpKind::PopOk, OpKind::PopEmpty,
                   /*Lifo=*/true, "stack"};
  return checkContainer(G, ObjId, S, Opts);
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

namespace {

CheckResult checkAbsState(const EventGraph &G, unsigned ObjId, bool Lifo,
                          AbsStateOptions Opts) {
  CheckResult R;
  ContainerShape S = Lifo ? ContainerShape{OpKind::Push, OpKind::PopOk,
                                           OpKind::PopEmpty, true, "stack"}
                          : ContainerShape{OpKind::Enq, OpKind::DeqOk,
                                           OpKind::DeqEmpty, false, "queue"};
  std::deque<rmc::Value> State;
  for (EventId Id : G.objectEvents(ObjId)) {
    const Event &E = G.event(Id);
    if (E.Kind == S.Produce) {
      State.push_back(E.V1);
      continue;
    }
    if (E.Kind == S.ConsumeOk) {
      if (State.empty()) {
        R.add("ABS", "consume from empty abstract state: " + evStr(G, Id));
        continue;
      }
      rmc::Value Expect = Lifo ? State.back() : State.front();
      if (Expect != E.V1)
        R.add("ABS", "abstract state yields " + std::to_string(Expect) +
                         " but operation returned: " + evStr(G, Id));
      if (Lifo)
        State.pop_back();
      else
        State.pop_front();
      continue;
    }
    if (E.Kind == S.ConsumeEmp) {
      if (Opts.RequireTrueEmpty && !State.empty())
        R.add("ABS-EMPTY", "empty consume while abstract state holds " +
                               std::to_string(State.size()) +
                               " elements: " + evStr(G, Id));
      continue;
    }
    R.add("ABS-KIND", "foreign event kind: " + evStr(G, Id));
  }
  return R;
}

} // namespace

CheckResult spec::checkQueueAbsState(const EventGraph &G, unsigned ObjId,
                                     AbsStateOptions Opts) {
  return checkAbsState(G, ObjId, /*Lifo=*/false, Opts);
}

CheckResult spec::checkStackAbsState(const EventGraph &G, unsigned ObjId,
                                     AbsStateOptions Opts) {
  return checkAbsState(G, ObjId, /*Lifo=*/true, Opts);
}

CheckResult spec::checkWsDequeConsistent(const EventGraph &G,
                                         unsigned ObjId,
                                         ContainerCheckOptions Opts) {
  CheckResult R;
  std::string WF = G.checkWellFormed();
  if (!WF.empty())
    R.add("WELLFORMED", WF);

  std::vector<EventId> Evs = G.objectEvents(ObjId);

  // Single-owner discipline: all Push/PopOk/PopEmpty come from one
  // thread; every Steal/StealEmpty from a different thread.
  unsigned OwnerThread = ~0u;
  for (EventId Id : Evs) {
    const Event &E = G.event(Id);
    switch (E.Kind) {
    case OpKind::Push:
    case OpKind::PopOk:
    case OpKind::PopEmpty:
      if (OwnerThread == ~0u)
        OwnerThread = E.Thread;
      else if (E.Thread != OwnerThread)
        R.add("OWNER", "owner operations from two threads: " +
                           evStr(G, Id));
      break;
    case OpKind::Steal:
    case OpKind::StealEmpty:
      break;
    default:
      R.add("KINDS", "foreign event in deque graph: " + evStr(G, Id));
    }
  }
  for (EventId Id : Evs) {
    const Event &E = G.event(Id);
    if ((E.Kind == OpKind::Steal || E.Kind == OpKind::StealEmpty) &&
        E.Thread == OwnerThread)
      R.add("OWNER", "owner stealing from its own deque: " + evStr(G, Id));
  }

  // Matching: so edges are Push -> (PopOk | Steal), values agree, each
  // element consumed at most once, every consume matched, consumers
  // observe their producer.
  std::map<EventId, unsigned> ProducerMatches, ConsumerMatches;
  for (const SoEdge &Edge : G.so()) {
    if (!G.isCommitted(Edge.From) || !G.isCommitted(Edge.To))
      continue;
    const Event &From = G.event(Edge.From);
    const Event &To = G.event(Edge.To);
    if (From.ObjId != ObjId && To.ObjId != ObjId)
      continue;
    if (From.ObjId != To.ObjId) {
      R.add("SO-OBJ", "so edge across objects: " + evStr(G, Edge.From));
      continue;
    }
    if (From.Kind != OpKind::Push ||
        (To.Kind != OpKind::PopOk && To.Kind != OpKind::Steal)) {
      R.add("SO-KINDS", "so edge with wrong kinds: " +
                            evStr(G, Edge.From) + " -> " +
                            evStr(G, Edge.To));
      continue;
    }
    if (From.V1 != To.V1)
      R.add("MATCHES", "value mismatch: " + evStr(G, Edge.From) + " -> " +
                           evStr(G, Edge.To));
    if (!G.lhb(Edge.From, Edge.To))
      R.add("SO-LHB", "consumer does not observe its producer: " +
                          evStr(G, Edge.From) + " -> " +
                          evStr(G, Edge.To));
    ++ProducerMatches[Edge.From];
    ++ConsumerMatches[Edge.To];
  }
  for (auto &[Id, N] : ProducerMatches)
    if (N > 1)
      R.add("INJ", "element consumed more than once: " + evStr(G, Id));
  for (EventId Id : Evs) {
    const Event &E = G.event(Id);
    if ((E.Kind == OpKind::PopOk || E.Kind == OpKind::Steal) &&
        !ConsumerMatches.count(Id))
      R.add("UNMATCHED", "consume without a producer: " + evStr(G, Id));
  }

  // Empty axioms (the QUEUE-EMPDEQ analog): an empty take/steal that
  // happens-after an unconsumed push is impossible.
  for (EventId D : Evs) {
    const Event &ED = G.event(D);
    if (ED.Kind != OpKind::PopEmpty && ED.Kind != OpKind::StealEmpty)
      continue;
    for (EventId E : Evs) {
      if (G.event(E).Kind != OpKind::Push || !G.lhb(E, D))
        continue;
      std::optional<EventId> D2 = G.matchOfProducer(E);
      if (!D2) {
        R.add("EMPTY", "empty consume " + evStr(G, D) +
                           " despite knowing unconsumed " + evStr(G, E));
        continue;
      }
      if (G.lhb(D, *D2))
        R.add("EMPTY", "empty consume " + evStr(G, D) +
                           " happens before the consumption of known " +
                           evStr(G, E));
      if (Opts.StrictEmpty &&
          G.event(*D2).CommitIdx >= G.event(D).CommitIdx)
        R.add("EMPTY-STRICT", "known " + evStr(G, E) +
                                  " consumed only after empty consume " +
                                  evStr(G, D));
    }
  }
  return R;
}

CheckResult spec::checkWsDequeAbsState(const EventGraph &G, unsigned ObjId,
                                       AbsStateOptions Opts) {
  CheckResult R;
  std::deque<rmc::Value> State; // Front = top (steal end), back = bottom.
  for (EventId Id : G.objectEvents(ObjId)) {
    const Event &E = G.event(Id);
    switch (E.Kind) {
    case OpKind::Push:
      State.push_back(E.V1);
      break;
    case OpKind::PopOk:
      if (State.empty() || State.back() != E.V1)
        R.add("ABS", "owner take does not match the bottom: " +
                         evStr(G, Id));
      else
        State.pop_back();
      break;
    case OpKind::Steal:
      if (State.empty() || State.front() != E.V1)
        R.add("ABS", "steal does not match the top: " + evStr(G, Id));
      else
        State.pop_front();
      break;
    case OpKind::PopEmpty:
    case OpKind::StealEmpty:
      if (Opts.RequireTrueEmpty && !State.empty())
        R.add("ABS-EMPTY", "empty consume on non-empty abstract state: " +
                               evStr(G, Id));
      break;
    default:
      R.add("ABS-KIND", "foreign event kind: " + evStr(G, Id));
    }
  }
  return R;
}
