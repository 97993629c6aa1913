//===-- spec/Linearization.cpp - LAT_hist linearization search -------------===//

#include "spec/Linearization.h"

#include "support/Error.h"

#include <algorithm>

using namespace compass;
using namespace compass::spec;
using namespace compass::graph;

namespace {

/// The visited (chosen set, abstract state) pairs of one search. Each key
/// is packed as [Chosen, length, values...] into one arena and found
/// through an open-addressing table of arena offsets, so an insert copies
/// no container and allocates only when the arena or the table grows.
class VisitedSet {
public:
  /// Inserts the key; false when it was already present.
  bool insert(uint64_t Chosen, const rmc::Value *Vals, size_t N) {
    if ((Count + 1) * 2 > Table.size())
      grow();
    const size_t Mask = Table.size() - 1;
    for (size_t I = hash(Chosen, Vals, N) & Mask;; I = (I + 1) & Mask) {
      if (Table[I] == 0) {
        Table[I] = static_cast<uint32_t>(Arena.size()) + 1;
        Arena.push_back(Chosen);
        Arena.push_back(N);
        Arena.insert(Arena.end(), Vals, Vals + N);
        ++Count;
        return true;
      }
      const uint64_t *K = Arena.data() + (Table[I] - 1);
      if (K[0] == Chosen && K[1] == N && std::equal(Vals, Vals + N, K + 2))
        return false;
    }
  }

private:
  static size_t hash(uint64_t Chosen, const rmc::Value *Vals, size_t N) {
    uint64_t H = (Chosen ^ N) * 0x9e3779b97f4a7c15ull;
    for (size_t I = 0; I != N; ++I) {
      H = (H ^ Vals[I]) * 0x9e3779b97f4a7c15ull;
      H ^= H >> 29;
    }
    return static_cast<size_t>(H ^ (H >> 32));
  }

  void grow() {
    Table.assign(Table.empty() ? 16 : Table.size() * 2, 0);
    const size_t Mask = Table.size() - 1;
    for (size_t Off = 0; Off != Arena.size(); Off += 2 + Arena[Off + 1]) {
      const uint64_t *K = Arena.data() + Off; // K + 2 may be the end.
      size_t I = hash(K[0], K + 2, K[1]) & Mask;
      while (Table[I])
        I = (I + 1) & Mask;
      Table[I] = static_cast<uint32_t>(Off) + 1;
    }
  }

  std::vector<uint64_t> Arena;
  std::vector<uint32_t> Table; ///< Arena offset + 1; 0 = empty.
  size_t Count = 0;
};

/// DFS state for the search over one object's history.
struct Search {
  const EventGraph &G;
  SeqSpec Spec;
  const std::vector<EventId> &Evs; ///< The history, commit order.
  uint64_t LhbPredMask[64] = {};   ///< Per event: mask of lhb preds.
  VisitedSet Visited;
  std::vector<EventId> Order;
  uint64_t States = 0;
  uint64_t MaxStates = 0; ///< 0 = unlimited.
  bool Aborted = false;

  /// The abstract state, Vals[Lo, Hi): front = FIFO head / steal end,
  /// back = LIFO top / owner end. Steps apply in place and are undone on
  /// backtracking; at most |Evs| <= 64 values are ever pushed.
  rmc::Value Vals[64] = {};
  size_t Lo = 0, Hi = 0;

  Search(const EventGraph &G, SeqSpec Spec, const std::vector<EventId> &Evs)
      : G(G), Spec(Spec), Evs(Evs) {}

  bool isProduce(const Event &E) const {
    if (Spec == SeqSpec::Queue)
      return E.Kind == OpKind::Enq;
    return E.Kind == OpKind::Push; // Stack and WsDeque.
  }

  /// What a legal step did to the state, for undo.
  enum class Effect : uint8_t { None, Pushed, PoppedBack, PoppedFront };

  /// Whether event \p I can extend a prefix in the current state; applies
  /// the transition when legal and reports it in \p Did.
  bool step(unsigned I, Effect &Did) {
    const Event &E = G.event(Evs[I]);
    Did = Effect::None;
    if (isProduce(E)) {
      Vals[Hi++] = E.V1;
      Did = Effect::Pushed;
      return true;
    }
    const bool Empty = Lo == Hi;
    auto popBack = [&] {
      if (Empty || Vals[Hi - 1] != E.V1)
        return false;
      --Hi;
      Did = Effect::PoppedBack;
      return true;
    };
    auto popFront = [&] {
      if (Empty || Vals[Lo] != E.V1)
        return false;
      ++Lo;
      Did = Effect::PoppedFront;
      return true;
    };
    switch (E.Kind) {
    case OpKind::DeqOk:
      return Spec == SeqSpec::Queue && popFront();
    case OpKind::PopOk:
      return Spec != SeqSpec::Queue && popBack();
    case OpKind::Steal:
      return Spec == SeqSpec::WsDeque && popFront();
    case OpKind::DeqEmpty:
      return Spec == SeqSpec::Queue && Empty;
    case OpKind::PopEmpty:
      return Spec != SeqSpec::Queue && Empty;
    case OpKind::StealEmpty:
      return Spec == SeqSpec::WsDeque && Empty;
    default:
      return false; // Foreign kind: no linearization.
    }
  }

  /// Reverts step(\p I) that reported \p Did. A pop restores the popped
  /// value, which equals the event's V1; a later push may have overwritten
  /// its slot.
  void undo(unsigned I, Effect Did) {
    switch (Did) {
    case Effect::None:
      break;
    case Effect::Pushed:
      --Hi;
      break;
    case Effect::PoppedBack:
      Vals[Hi++] = G.event(Evs[I]).V1;
      break;
    case Effect::PoppedFront:
      Vals[--Lo] = G.event(Evs[I]).V1;
      break;
    }
  }

  bool dfs(uint64_t Chosen) {
    ++States;
    if (MaxStates && States > MaxStates) {
      Aborted = true;
      return false;
    }
    unsigned N = static_cast<unsigned>(Evs.size());
    if (Chosen == (N == 64 ? ~0ull : (1ull << N) - 1))
      return true;
    if (!Visited.insert(Chosen, Vals + Lo, Hi - Lo))
      return false;
    for (unsigned I = 0; I != N; ++I) {
      if (Chosen & (1ull << I))
        continue;
      // Respect lhb: all lhb-predecessors already placed.
      if ((LhbPredMask[I] & Chosen) != LhbPredMask[I])
        continue;
      Effect Did = Effect::None;
      if (!step(I, Did))
        continue;
      Order.push_back(Evs[I]);
      if (dfs(Chosen | (1ull << I)))
        return true;
      Order.pop_back();
      undo(I, Did);
    }
    return false;
  }
};

} // namespace

LinearizationResult spec::findLinearization(const EventGraph &G,
                                            unsigned ObjId, SeqSpec Spec,
                                            LinearizeLimits Limits) {
  const std::vector<EventId> &Evs = G.objectEvents(ObjId);
  unsigned N = static_cast<unsigned>(Evs.size());
  if (N > 64)
    fatalError("linearization search limited to 64 events");
  Search S(G, Spec, Evs);
  S.MaxStates = Limits.MaxStates;
  S.Order.reserve(N);

  for (unsigned I = 0; I != N; ++I)
    for (unsigned J = 0; J != N; ++J)
      if (I != J && G.lhb(S.Evs[J], S.Evs[I]))
        S.LhbPredMask[I] |= 1ull << J;

  LinearizationResult R;
  R.Found = S.dfs(0);
  R.Order = std::move(S.Order);
  R.StatesExplored = S.States;
  R.Aborted = S.Aborted;
  return R;
}
