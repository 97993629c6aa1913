//===-- spec/SpecMonitor.cpp - Commit-point event recording ----------------===//

#include "spec/SpecMonitor.h"

using namespace compass;
using namespace compass::spec;
using namespace compass::graph;

EventId SpecMonitor::reserve(rmc::Machine &M, unsigned T) {
  EventId Id = G.reserve();
  M.threadCur(T).Events.insert(Id);
  M.threadAcq(T).Events.insert(Id);
  return Id;
}

void SpecMonitor::retract(rmc::Machine &M, unsigned T, EventId Id) {
  G.retract(Id);
  M.threadCur(T).Events.erase(Id);
  M.threadAcq(T).Events.erase(Id);
}

void SpecMonitor::committedKnown(const rmc::Machine &M, unsigned T,
                                 IdSet &Out) const {
  Out.clear();
  M.threadCur(T).Events.forEach([&](uint32_t Id) {
    if (G.isCommitted(Id))
      Out.insert(Id);
  });
}

void SpecMonitor::commit(rmc::Machine &M, unsigned T, EventId Id,
                         unsigned ObjId, OpKind Kind, rmc::Value V1,
                         rmc::Value V2, std::optional<EventId> SoFrom) {
  // Filled in place: the slot's logical view keeps its storage (EventGraph).
  Event &E = G.slot(Id);
  E.Kind = Kind;
  E.V1 = V1;
  E.V2 = V2;
  E.ObjId = ObjId;
  E.Thread = T;
  committedKnown(M, T, E.LogView);
  E.LogView.insert(Id);
  G.commit(Id);
  if (SoFrom)
    G.addSo(*SoFrom, Id);
}

void SpecMonitor::commitExchangePair(rmc::Machine &M, unsigned HelperT,
                                     EventId HelperId, rmc::Value HelperVal,
                                     unsigned HelpeeT, EventId HelpeeId,
                                     rmc::Value HelpeeVal,
                                     unsigned ObjId) {
  // Helpee first (the paper's commit order e2 < e1 when e1 helps). Its
  // logical view is the helper's, which cannot yet contain the helper's
  // own event (not committed), realizing footnote 7: the helpee does not
  // happen-after the helper.
  Event &E2 = G.slot(HelpeeId);
  E2.Kind = OpKind::Exchange;
  E2.V1 = HelpeeVal;
  E2.V2 = HelperVal;
  E2.ObjId = ObjId;
  E2.Thread = HelpeeT;
  committedKnown(M, HelperT, E2.LogView);
  E2.LogView.insert(HelpeeId);
  G.commit(HelpeeId);

  Event &E1 = G.slot(HelperId);
  E1.Kind = OpKind::Exchange;
  E1.V1 = HelperVal;
  E1.V2 = HelpeeVal;
  E1.ObjId = ObjId;
  E1.Thread = HelperT;
  committedKnown(M, HelperT, E1.LogView); // Now includes HelpeeId.
  E1.LogView.insert(HelperId);
  G.commit(HelperId);

  G.addSo(HelperId, HelpeeId);
  G.addSo(HelpeeId, HelperId);
}
