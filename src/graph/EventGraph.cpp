//===-- graph/EventGraph.cpp - The per-simulation event graph --------------===//

#include "graph/EventGraph.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace compass;
using namespace compass::graph;

EventId EventGraph::reserve() {
  EventId Id = static_cast<EventId>(States.size());
  if (Id == Events.size())
    Events.emplace_back();
  States.push_back(State::Reserved);
  return Id;
}

Event &EventGraph::slot(EventId Id) {
  if (Id >= States.size() || States[Id] != State::Reserved)
    fatalError("slot of an id that is not reserved");
  return Events[Id];
}

void EventGraph::commit(EventId Id) {
  Event &E = slot(Id);
  assert(E.Kind != OpKind::Invalid && "committing an empty event");
  E.CommitIdx = NextCommitIdx++;
  States[Id] = State::Committed;
  UndoLog.push_back(Id);
  Order.push_back(Id);
  objOrder(E.ObjId).push_back(Id);
  appendKey(Id);
}

void EventGraph::appendKey(EventId Id) {
  // Bit 32 marks a commit record's first word and bit 63 an so record's,
  // so no record starts like another.
  const Event &E = Events[Id];
  const std::vector<uint64_t> &View = E.LogView.words();
  size_t N = View.size();
  while (N && !View[N - 1])
    --N;
  addKeyWord(uint64_t(E.Kind) << 33 | 1ull << 32 | E.CommitIdx);
  addKeyWord(uint64_t(E.ObjId) << 32 | E.Thread);
  addKeyWord(E.V1);
  addKeyWord(E.V2);
  addKeyWord(uint64_t(Id) << 32 | N);
  for (size_t I = 0; I != N; ++I)
    addKeyWord(View[I]);
}

void EventGraph::commit(EventId Id, Event E) {
  slot(Id) = std::move(E);
  commit(Id);
}

void EventGraph::retract(EventId Id) {
  if (Id >= States.size() || States[Id] != State::Reserved)
    fatalError("retract of an id that is not reserved");
  States[Id] = State::Retracted;
  UndoLog.push_back(Id);
}

void EventGraph::trimToEpoch(const Epoch &E) {
  assert(E.UndoMark <= UndoLog.size() && "epoch from a different timeline");
  for (size_t I = UndoLog.size(); I > E.UndoMark; --I) {
    EventId Id = UndoLog[I - 1];
    if (Id < E.NumEvents)
      States[Id] = State::Reserved;
  }
  // Everything committed after the mark got a later commit index, so it
  // sits at the tail of its commit-order lists.
  while (!Order.empty() && Events[Order.back()].CommitIdx >= E.NextCommit) {
    std::vector<EventId> &Obj = objOrder(Events[Order.back()].ObjId);
    assert(!Obj.empty() && Obj.back() == Order.back() &&
           "per-object commit order out of step");
    Obj.pop_back();
    Order.pop_back();
  }
  UndoLog.resize(E.UndoMark);
  States.resize(E.NumEvents, State::Reserved);
  So.resize(E.NumSo);
  KeyWords.resize(E.KeyLen);
  KeyHash = E.KeyHash;
  NextCommitIdx = E.NextCommit;
}

Event &EventGraph::rawSlot(EventId Id) {
  if (Id >= States.size()) {
    if (Id >= Events.size())
      Events.resize(Id + 1);
    States.resize(Id + 1, State::Retracted);
  }
  if (States[Id] == State::Committed)
    fatalError("addRaw would overwrite a committed event");
  return Events[Id];
}

void EventGraph::commitRaw(EventId Id) {
  const Event &E = Events[Id];
  if (E.Kind == OpKind::Invalid)
    fatalError("addRaw of an invalid event");
  States[Id] = State::Committed;
  if (E.CommitIdx >= NextCommitIdx)
    NextCommitIdx = E.CommitIdx + 1;
  insertOrdered(Id);
  appendKey(Id);
}

std::vector<EventId> &EventGraph::objOrder(unsigned ObjId) {
  for (ObjOrder &O : ByObj)
    if (O.ObjId == ObjId)
      return O.Ids;
  ByObj.push_back({ObjId, {}});
  return ByObj.back().Ids;
}

void EventGraph::insertOrdered(EventId Id) {
  auto ByIdx = [&](EventId A, EventId B) {
    return Events[A].CommitIdx < Events[B].CommitIdx;
  };
  for (std::vector<EventId> *L : {&Order, &objOrder(Events[Id].ObjId)})
    L->insert(std::upper_bound(L->begin(), L->end(), Id, ByIdx), Id);
}

void EventGraph::addSo(EventId From, EventId To) {
  if (!isCommitted(From) || !isCommitted(To))
    fatalError("so edge between uncommitted events");
  So.push_back({From, To});
  addKeyWord(1ull << 63 | From);
  addKeyWord(To);
}

bool EventGraph::isCommitted(EventId Id) const {
  return Id < States.size() && States[Id] == State::Committed;
}

const Event &EventGraph::event(EventId Id) const {
  if (!isCommitted(Id))
    fatalError("event() on an uncommitted id");
  return Events[Id];
}

bool EventGraph::lhb(EventId E, EventId D) const {
  if (E == D || !isCommitted(E) || !isCommitted(D))
    return false;
  return Events[D].LogView.contains(E);
}

const std::vector<EventId> &EventGraph::objectEvents(unsigned ObjId) const {
  for (const ObjOrder &O : ByObj)
    if (O.ObjId == ObjId)
      return O.Ids;
  static const std::vector<EventId> None;
  return None;
}

std::vector<EventId> EventGraph::soSuccessors(EventId Id) const {
  std::vector<EventId> Out;
  for (const SoEdge &Edge : So)
    if (Edge.From == Id)
      Out.push_back(Edge.To);
  return Out;
}

std::vector<EventId> EventGraph::soPredecessors(EventId Id) const {
  std::vector<EventId> Out;
  for (const SoEdge &Edge : So)
    if (Edge.To == Id)
      Out.push_back(Edge.From);
  return Out;
}

std::optional<EventId> EventGraph::matchOfProducer(EventId Id) const {
  std::optional<EventId> Match;
  for (const SoEdge &Edge : So) {
    if (Edge.From != Id)
      continue;
    assert(!Match && "producer matched more than once");
    if (!Match)
      Match = Edge.To;
  }
  return Match;
}

std::optional<EventId> EventGraph::matchOfConsumer(EventId Id) const {
  std::optional<EventId> Match;
  for (const SoEdge &Edge : So) {
    if (Edge.To != Id)
      continue;
    assert(!Match && "consumer matched more than once");
    if (!Match)
      Match = Edge.From;
  }
  return Match;
}

std::string EventGraph::checkWellFormed() const {
  const std::vector<EventId> &Committed = Order;

  // Commit indices are unique (committedEvents sorted by them).
  for (size_t I = 1; I < Committed.size(); ++I)
    if (Events[Committed[I - 1]].CommitIdx ==
        Events[Committed[I]].CommitIdx)
      return "duplicate commit index";

  for (EventId D : Committed) {
    const Event &Ev = Events[D];
    if (!Ev.LogView.contains(D))
      return "event " + std::to_string(D) +
             " does not observe itself in its logical view";
    bool Bad = false;
    std::string Err;
    Ev.LogView.forEach([&](EventId E) {
      if (Bad || E == D)
        return;
      if (E >= States.size()) {
        Bad = true;
        Err = "logical view contains unknown id";
        return;
      }
      if (States[E] != State::Committed)
        return; // Retracted/reserved ids in views carry no information.
      if (Events[E].CommitIdx >= Ev.CommitIdx) {
        Bad = true;
        Err = "event " + std::to_string(D) +
              " observes later-committed event " + std::to_string(E);
        return;
      }
      // Transitivity: what E observed, D observes.
      if (!Bad) {
        Events[E].LogView.forEach([&](EventId F) {
          if (States[F] == State::Committed && !Ev.LogView.contains(F)) {
            Bad = true;
            Err = "logical views not transitively closed";
          }
        });
      }
    });
    if (Bad)
      return Err;
  }

  for (const SoEdge &Edge : So)
    if (!isCommitted(Edge.From) || !isCommitted(Edge.To))
      return "so edge between uncommitted events";
  return "";
}

std::string EventGraph::str() const {
  std::string Out;
  for (EventId Id : committedEvents()) {
    Out += Events[Id].str(Id);
    Out += "\n";
  }
  for (const SoEdge &Edge : So)
    Out += "so: #" + std::to_string(Edge.From) + " -> #" +
           std::to_string(Edge.To) + "\n";
  return Out;
}
