//===-- spec/Composition.cpp - Elimination-stack graph composition ---------===//

#include "spec/Composition.h"

using namespace compass;
using namespace compass::spec;
using namespace compass::graph;

void spec::buildElimStackGraph(const EventGraph &G, unsigned BaseObj,
                               unsigned ExObj, unsigned EsObj,
                               EventGraph &Out) {
  Out.reset();

  // Base-stack events carry over unchanged (modulo the object id).
  for (EventId Id : G.objectEvents(BaseObj)) {
    Event &E = Out.rawSlot(Id);
    E = G.event(Id);
    E.ObjId = EsObj;
    Out.commitRaw(Id);
  }
  for (const SoEdge &Edge : G.so()) {
    if (!G.isCommitted(Edge.From) || !G.isCommitted(Edge.To))
      continue;
    if (G.event(Edge.From).ObjId == BaseObj &&
        G.event(Edge.To).ObjId == BaseObj)
      Out.addSo(Edge.From, Edge.To);
  }

  // Eliminated pairs: visit each exchanger so pair once, via the edge
  // whose source committed first (the helpee -> helper direction).
  for (const SoEdge &Edge : G.so()) {
    if (!G.isCommitted(Edge.From) || !G.isCommitted(Edge.To))
      continue;
    const Event &A = G.event(Edge.From);
    const Event &B = G.event(Edge.To);
    if (A.ObjId != ExObj || B.ObjId != ExObj)
      continue;
    if (A.CommitIdx > B.CommitIdx)
      continue; // The symmetric edge handles this pair.

    bool AIsPop = A.V1 == SentinelVal;
    bool BIsPop = B.V1 == SentinelVal;
    if (AIsPop == BIsPop)
      continue; // push/push or pop/pop: both callers report failure.

    EventId PushId = AIsPop ? Edge.To : Edge.From;
    EventId PopId = AIsPop ? Edge.From : Edge.To;
    const Event &Pusher = G.event(PushId);
    const Event &Popper = G.event(PopId);
    // The helper's logical view is the pair's shared one; it contains
    // both ids whichever side helped.
    const Event &Helper = A.CommitIdx < B.CommitIdx ? B : A;
    uint32_t C1 = A.CommitIdx;

    Event &PushE = Out.rawSlot(PushId);
    PushE.Kind = OpKind::Push;
    PushE.V1 = Pusher.V1;
    PushE.V2 = 0;
    PushE.ObjId = EsObj;
    PushE.Thread = Pusher.Thread;
    PushE.CommitIdx = C1;
    PushE.LogView = Helper.LogView;
    PushE.LogView.erase(PopId);
    Out.commitRaw(PushId);

    Event &PopE = Out.rawSlot(PopId);
    PopE.Kind = OpKind::PopOk;
    PopE.V1 = Pusher.V1;
    PopE.V2 = 0;
    PopE.ObjId = EsObj;
    PopE.Thread = Popper.Thread;
    PopE.CommitIdx = C1 + 1;
    PopE.LogView = Helper.LogView;
    Out.commitRaw(PopId);

    Out.addSo(PushId, PopId);
  }
}
