//===-- check/RefModel.cpp - Sequential reference oracles ------------------===//

#include "check/RefModel.h"

#include "spec/Consistency.h"

#include <algorithm>
#include <sstream>

using namespace compass;
using namespace compass::check;
using namespace compass::graph;

namespace {

/// Step 1: injectivity prescan. The axiom checkers (and
/// EventGraph::matchOfProducer) assume at most one match per event;
/// duplication mutants violate exactly that, so report it first.
Verdict injPrescan(const EventGraph &G, unsigned ObjId,
                   const spec::ContainerSpec &S) {
  auto IsConsumer = [&](const Event &E) {
    return E.ObjId == ObjId && S.role(E.Kind).R == spec::Role::Consume;
  };
  for (EventId E : G.objectEvents(ObjId)) {
    const Event &Ev = G.event(E);
    if (Ev.Kind == S.Produce) {
      unsigned Consumers = 0;
      for (const SoEdge &Edge : G.so())
        if (Edge.From == E && IsConsumer(G.event(Edge.To)))
          ++Consumers;
      if (Consumers > 1) {
        std::ostringstream OS;
        OS << "producer " << Ev.str(E) << " consumed " << Consumers
           << " times:";
        for (EventId C : G.soSuccessors(E))
          OS << ' ' << G.event(C).str(C);
        return Verdict::fail("INJ", OS.str());
      }
    }
    if (IsConsumer(Ev)) {
      unsigned Producers = 0;
      for (const SoEdge &Edge : G.so()) {
        if (Edge.To != E)
          continue;
        const Event &P = G.event(Edge.From);
        if (P.ObjId == ObjId && P.Kind == S.Produce)
          ++Producers;
      }
      if (Producers > 1)
        return Verdict::fail("INJ", "consumer " + Ev.str(E) +
                                        " matched to multiple producers");
    }
  }
  return {};
}

/// Steps 3-4: witness search plus the oracle's re-check.
Verdict checkWitness(const EventGraph &G, unsigned ObjId,
                     spec::SeqSpec Spec, spec::LinearizeLimits Limits,
                     bool &Aborted) {
  spec::LinearizationResult R =
      spec::findLinearization(G, ObjId, Spec, Limits);
  Aborted = R.Aborted;
  if (R.Aborted)
    return {}; // Unknown: budget ran out; the driver counts these.
  if (!R.Found) {
    std::ostringstream OS;
    OS << "no total order ⊇ lhb is explained by the sequential spec ("
       << R.StatesExplored << " states searched); history:";
    for (EventId E : G.objectEvents(ObjId))
      OS << ' ' << G.event(E).str(E);
    return Verdict::fail("WITNESS", OS.str());
  }
  return checkWitnessOrder(G, ObjId, Spec, R.Order);
}

/// The expected committed event for one observed op, or "skip" when the op
/// legitimately committed nothing.
struct Expect {
  bool Skip = false;
  OpKind Kind = OpKind::Invalid;
  rmc::Value V1 = 0;
  bool CheckV2 = false;
  rmc::Value V2 = 0;
};

Expect expectFor(const Observed &O) {
  Expect X;
  switch (O.Code) {
  case OpCode::Enq:
    if (O.Result == 0) { // SpscRing tryEnqueue found the ring full.
      X.Skip = true;
      return X;
    }
    X.Kind = OpKind::Enq;
    X.V1 = O.Arg;
    return X;
  case OpCode::Push:
    if (O.Result == FailRaceVal) { // ElimStack rounds exhausted.
      X.Skip = true;
      return X;
    }
    X.Kind = OpKind::Push;
    X.V1 = O.Arg;
    return X;
  case OpCode::Deq:
    X.Kind = O.Result == EmptyVal ? OpKind::DeqEmpty : OpKind::DeqOk;
    X.V1 = O.Result;
    return X;
  case OpCode::Pop:
  case OpCode::Take:
    if (O.Result == FailRaceVal) {
      X.Skip = true;
      return X;
    }
    X.Kind = O.Result == EmptyVal ? OpKind::PopEmpty : OpKind::PopOk;
    X.V1 = O.Result;
    return X;
  case OpCode::Steal:
    if (O.Result == FailRaceVal) {
      X.Skip = true;
      return X;
    }
    X.Kind = O.Result == EmptyVal ? OpKind::StealEmpty : OpKind::Steal;
    X.V1 = O.Result;
    return X;
  case OpCode::Exchange:
    X.Kind = OpKind::Exchange;
    X.V1 = O.Arg;
    X.CheckV2 = true;
    X.V2 = O.Result; // BottomVal on failure.
    return X;
  }
  X.Skip = true;
  return X;
}

/// Step 5: per-thread observed results vs committed events in program
/// order. Catches mutants whose graphs are consistent but whose return
/// values lie (e.g. ExchangerEchoValue).
Verdict obsCheck(const EventGraph &G, unsigned ObjId,
                 const std::vector<std::vector<Observed>> &PerThread) {
  const std::vector<EventId> &Evs = G.objectEvents(ObjId);
  for (unsigned T = 0; T != PerThread.size(); ++T) {
    // Thread T's events, in commit order (== program order within a
    // thread): Next walks them.
    auto OfT = [&](EventId E) { return G.event(E).Thread == T; };
    auto Next = std::find_if(Evs.begin(), Evs.end(), OfT);
    size_t Pos = 0; ///< Events of T matched so far.
    for (size_t I = 0; I != PerThread[T].size(); ++I) {
      const Observed &O = PerThread[T][I];
      Expect X = expectFor(O);
      if (X.Skip)
        continue;
      if (Next == Evs.end()) {
        std::ostringstream OS;
        OS << "thread " << T << " op #" << I << " (" << opCodeName(O.Code)
           << " -> " << O.Result
           << ") has no committed event (expected " << opKindName(X.Kind)
           << ")";
        return Verdict::fail("OBS", OS.str());
      }
      const EventId Id = *Next;
      const Event &Ev = G.event(Id);
      Next = std::find_if(Next + 1, Evs.end(), OfT);
      ++Pos;
      bool KindOk = Ev.Kind == X.Kind;
      bool V1Ok = !KindOk || Ev.Kind == OpKind::DeqEmpty ||
                  Ev.Kind == OpKind::PopEmpty ||
                  Ev.Kind == OpKind::StealEmpty || Ev.V1 == X.V1;
      bool V2Ok = !X.CheckV2 || Ev.V2 == X.V2;
      if (!KindOk || !V1Ok || !V2Ok) {
        std::ostringstream OS;
        OS << "thread " << T << " op #" << I << " (" << opCodeName(O.Code);
        if (O.Arg)
          OS << ':' << O.Arg;
        OS << ") observed result " << O.Result
           << " but committed event is " << Ev.str(Id);
        return Verdict::fail("OBS", OS.str());
      }
    }
    if (Next != Evs.end()) {
      std::ostringstream OS;
      OS << "thread " << T << " committed "
         << std::count_if(Evs.begin(), Evs.end(), OfT) << " events for "
         << Pos << " observed-op expectations";
      return Verdict::fail("OBS", OS.str());
    }
  }
  return {};
}

} // namespace

Verdict check::checkWitnessOrder(const EventGraph &G, unsigned ObjId,
                                 spec::SeqSpec Spec,
                                 const std::vector<EventId> &Order) {
  auto Fail = [&](size_t Step, const std::string &Why) {
    EventId E = Order[Step];
    std::string Ev = G.isCommitted(E) ? G.event(E).str(E)
                                      : "#" + std::to_string(E);
    return Verdict::fail("ORACLE", "witness step " + std::to_string(Step) +
                                       " (" + Ev + ") " + Why);
  };
  // `to` is a permutation of the history and respects lhb; pairwise
  // checks keep this allocation-free (Order holds at most 64 events).
  for (size_t J = 0; J != Order.size(); ++J) {
    if (!G.isCommitted(Order[J]) || G.event(Order[J]).ObjId != ObjId)
      return Fail(J, "is not an event of obj" + std::to_string(ObjId));
    for (size_t I = 0; I != J; ++I) {
      if (Order[I] == Order[J])
        return Fail(J, "is listed twice (also step " + std::to_string(I) +
                           ")");
      if (G.lhb(Order[J], Order[I]))
        return Fail(J, "is placed after its lhb-successor " +
                           G.event(Order[I]).str(Order[I]));
    }
  }
  size_t HistoryLen = 0;
  for (EventId E = 0; E != G.size(); ++E)
    if (G.isCommitted(E) && G.event(E).ObjId == ObjId)
      ++HistoryLen;
  if (Order.size() != HistoryLen)
    return Verdict::fail("ORACLE", "witness lists " +
                                       std::to_string(Order.size()) +
                                       " of the object's " +
                                       std::to_string(HistoryLen) + " events");
  // interp(to): every step is legal in the sequential semantics.
  const spec::ContainerSpec &S = spec::containerSpec(Spec);
  spec::SeqState State;
  for (size_t J = 0; J != Order.size(); ++J)
    if (State.apply(S, G.event(Order[J])) != spec::SeqStep::Ok)
      return Fail(J, "is illegal for the " + std::string(S.Name) +
                         " at state " + State.str());
  return {};
}

Verdict check::checkExecution(
    const EventGraph &G, unsigned ObjId, std::optional<spec::SeqSpec> Spec,
    const std::vector<std::vector<Observed>> &PerThread,
    spec::LinearizeLimits Limits, SpecStrength Strength) {
  // Exchangers: pairing axioms + OBS; no linearization spec.
  if (!Spec) {
    spec::CheckResult C = spec::checkExchangerConsistent(G, ObjId);
    if (!C.ok())
      return Verdict::fail("CONSISTENCY", C.str());
    return obsCheck(G, ObjId, PerThread);
  }

  Verdict V = injPrescan(G, ObjId, spec::containerSpec(*Spec));
  if (!V.Ok)
    return V;

  spec::CheckResult C = spec::checkConsistent(G, ObjId, *Spec);
  if (!C.ok())
    return Verdict::fail("CONSISTENCY", C.str());

  // Steps 3-4 only at LAT_hist_hb strength: an HbOnly library (the relaxed
  // HW queue) is *specified* to admit witness-less executions (§3.2).
  bool LinAborted = false;
  if (Strength == SpecStrength::Linearizable) {
    V = checkWitness(G, ObjId, *Spec, Limits, LinAborted);
    if (!V.Ok)
      return V; // An aborted search returns ok, so LinAborted is false.
  }

  V = obsCheck(G, ObjId, PerThread);
  V.LinAborted = LinAborted;
  return V;
}
