//===-- graph/EventGraph.h - The per-simulation event graph -----*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event graph `G` of Section 3.1: a map from event ids to events plus
/// the `so` (synchronized-with) relation between them. One graph instance
/// spans a whole simulation; events are tagged with the library object they
/// belong to, so per-object graphs (as in the paper, one graph per object)
/// are the projections by ObjId. Keeping a single id space is what makes
/// the elimination-stack composition of Section 4 expressible: its events
/// are built from the base stack's and the exchanger's events.
///
/// The graph is append-only and grows through a reserve/commit/retract
/// protocol driven by the spec monitor (spec/SpecMonitor.h): ids are
/// reserved before an operation's commit instruction so that the commit
/// write can carry the id in its message's logical view, and either
/// committed (filling in the event) or retracted (e.g. when a CAS that
/// would have been the commit point fails).
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_GRAPH_EVENTGRAPH_H
#define COMPASS_GRAPH_EVENTGRAPH_H

#include "graph/Event.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace compass::graph {

/// Folds \p W into the running key hash \p H (EventGraph::keyHash).
inline uint64_t keyMix(uint64_t H, uint64_t W) {
  H = (H ^ W) * 0x9e3779b97f4a7c15ull;
  return H ^ (H >> 29);
}

/// A pair in the synchronized-with relation; for container objects the
/// first component is the producing event (Enq/Push) and the second the
/// consuming one (DeqOk/PopOk); for exchangers so-pairs come in both
/// directions (Section 4.2).
struct SoEdge {
  EventId From;
  EventId To;
};

/// The (global) event graph; see file comment.
///
/// Event slots are retained storage, as rmc::Memory's cells are: reset()
/// and trimToEpoch() only lower the live watermark, so a reused slot keeps
/// its views' heap storage and a committer fills it in place (slot(), then
/// commit(Id)). The commit order, overall and per object, is kept as
/// events commit, so committedEvents() and objectEvents() cost no sort and
/// no allocation.
class EventGraph {
public:
  /// Rewinds to the empty graph, keeping all storage for reuse.
  void reset() {
    States.clear();
    So.clear();
    KeyWords.clear();
    KeyHash = 0;
    UndoLog.clear();
    NextCommitIdx = 0;
    Order.clear();
    for (ObjOrder &O : ByObj)
      O.Ids.clear();
  }

  /// A point in this graph's mutation history, for the copy-on-write
  /// engine (sim/Engine.h). Capturing one is O(1); trimToEpoch rewinds
  /// to it touching only state created after the mark. Epochs pop LIFO
  /// along the DFS path, mirroring rmc::Memory::Epoch.
  struct Epoch {
    size_t NumEvents = 0;
    size_t NumSo = 0;
    uint32_t NextCommit = 0;
    size_t UndoMark = 0;
    size_t KeyLen = 0;
    uint64_t KeyHash = 0;
  };

  Epoch epoch() const {
    return {States.size(), So.size(), NextCommitIdx,
            UndoLog.size(), KeyWords.size(), KeyHash};
  }

  /// Rewinds to \p E: ids reserved after the mark are dropped; ids
  /// reserved before but committed/retracted after revert to Reserved
  /// (their event payload may hold garbage, exactly as a fresh
  /// reservation's does); so edges and commit indices rewind with them.
  void trimToEpoch(const Epoch &E);

  /// Allocates a fresh id in Reserved state.
  EventId reserve();

  /// The reserved id \p Id's event slot, for its committer to fill in
  /// place before commit(Id). The slot still holds whatever event it held
  /// before (its view storage is what gets reused), so the committer sets
  /// every field but CommitIdx.
  Event &slot(EventId Id);

  /// Commits a reserved id whose slot the caller has filled, assigning the
  /// next commit index.
  void commit(EventId Id);

  /// Fills in the event for a reserved id and assigns the next commit
  /// index. \p E.CommitIdx is overwritten.
  void commit(EventId Id, Event E);

  /// Marks a reserved id as permanently unused.
  void retract(EventId Id);

  /// Composition/testing support: inserts a committed event with an
  /// explicit id and commit index (both must be unused). Used to build
  /// derived graphs (spec/Composition.h) and hand-crafted graphs in tests.
  void addRaw(EventId Id, Event E) {
    rawSlot(Id) = std::move(E);
    commitRaw(Id);
  }

  /// addRaw in place, for graphs rebuilt into retained storage: the slot
  /// of the unused id \p Id, which the caller fills (every field, CommitIdx
  /// included; the views keep their storage) before commitRaw(Id).
  Event &rawSlot(EventId Id);
  void commitRaw(EventId Id);

  /// Adds an so edge between two committed events.
  void addSo(EventId From, EventId To);

  unsigned size() const { return static_cast<unsigned>(States.size()); }

  /// True if \p Id is committed (has a real event).
  bool isCommitted(EventId Id) const;

  /// The event for a committed id.
  const Event &event(EventId Id) const;

  const std::vector<SoEdge> &so() const { return So; }

  /// The verdict memo's key of this graph (DESIGN.md §7), grown as the
  /// graph grows: each commit appends its event's words (kind, commit
  /// index, object, thread, values, id and logical view, trailing zero
  /// view words dropped), each so edge its two ends, and keyHash() folds
  /// every word in (keyMix). Records are self-delimiting, so equal words
  /// mean an equal sequence of commits and so edges. An epoch rewinds
  /// both.
  const std::vector<uint64_t> &keyWords() const { return KeyWords; }
  uint64_t keyHash() const { return KeyHash; }

  /// Local happens-before: e != d, both committed, and e is in d's logical
  /// view (Section 3.1's `(e, d) ∈ G.lhb`).
  bool lhb(EventId E, EventId D) const;

  /// Ids of committed events belonging to \p ObjId, in commit order.
  const std::vector<EventId> &objectEvents(unsigned ObjId) const;

  /// Ids of all committed events, in commit order.
  const std::vector<EventId> &committedEvents() const { return Order; }

  /// The so-matches of \p Id (edges Id -> x).
  std::vector<EventId> soSuccessors(EventId Id) const;

  /// The so-predecessors of \p Id (edges x -> Id).
  std::vector<EventId> soPredecessors(EventId Id) const;

  /// For container objects: the consuming event matched to producer \p Id,
  /// if any. Asserts at most one exists.
  std::optional<EventId> matchOfProducer(EventId Id) const;

  /// For container objects: the producer matched to consumer \p Id.
  std::optional<EventId> matchOfConsumer(EventId Id) const;

  /// Structural sanity of the graph itself (independent of any library's
  /// consistency conditions): logical views only contain earlier-committed
  /// or own ids, logical views are transitively closed over committed
  /// events, so edges connect committed events, commit indices are unique.
  /// Returns an error description, or empty if well-formed.
  std::string checkWellFormed() const;

  std::string str() const;

private:
  enum class State : uint8_t { Reserved, Committed, Retracted };

  /// One object's committed ids, in commit order.
  struct ObjOrder {
    unsigned ObjId = 0;
    std::vector<EventId> Ids;
  };

  /// The commit-order list of \p ObjId, created on first use.
  std::vector<EventId> &objOrder(unsigned ObjId);

  /// Adds committed \p Id to the commit-order lists at its CommitIdx.
  void insertOrdered(EventId Id);

  /// Appends committed \p Id's key record (see keyWords()).
  void appendKey(EventId Id);
  void addKeyWord(uint64_t W) {
    KeyWords.push_back(W);
    KeyHash = keyMix(KeyHash, W);
  }

  std::vector<Event> Events;  ///< Slots; [0, size()) are live, the rest
                              ///< is retained storage.
  std::vector<State> States;  ///< One per live id.
  std::vector<SoEdge> So;
  std::vector<uint64_t> KeyWords; ///< See keyWords().
  uint64_t KeyHash = 0;
  uint32_t NextCommitIdx = 0;
  /// Ids whose state left Reserved (commit or retract), in order; popping
  /// one reverts the id to Reserved. Truncations handle everything else.
  std::vector<EventId> UndoLog;
  std::vector<EventId> Order;  ///< Committed ids, by CommitIdx.
  std::vector<ObjOrder> ByObj; ///< Order split by object (kept when empty).
};

} // namespace compass::graph

#endif // COMPASS_GRAPH_EVENTGRAPH_H
