//===-- spec/SeqSpec.h - One sequential semantics per container -*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sequential semantics of the paper's containers, declared once. All
/// three spec styles read one semantics per container (§3.1–3.3): LAT_hb's
/// graph axioms, LAT_abs_hb's abstract state replayed in commit order, and
/// LAT_hist_hb's `interp(to, vs)` over a total order `to ⊇ lhb`. Each
/// SeqSpec has one ContainerSpec entry, and every container check reads it
/// (spec/Consistency.h, check/RefModel.h) except the linearization search,
/// whose hard-coded step is the independent copy the witness oracle
/// re-checks.
///
/// The abstract state is a double-ended list of values: producers append
/// at the Back; a queue consumes at the Front (its head), a stack at the
/// Back (its top), and a work-stealing deque's owner takes at the Back
/// while thieves steal at the Front.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SPEC_SEQSPEC_H
#define COMPASS_SPEC_SEQSPEC_H

#include "graph/Event.h"
#include "support/SmallVec.h"

#include <string>

namespace compass::spec {

/// The sequential specification a container object is checked against.
enum class SeqSpec : uint8_t {
  Stack,  ///< LIFO with Push/PopOk/PopEmpty.
  Queue,  ///< FIFO with Enq/DeqOk/DeqEmpty.
  WsDeque ///< Work-stealing deque: Push/PopOk at the bottom, Steal at
          ///< the top, PopEmpty/StealEmpty only on empty states.
};

/// An end of the abstract state; see file comment.
enum class End : uint8_t { Front, Back };

/// The graph ordering axiom (spec/Consistency.cpp spells both out).
enum class OrderAxiom : uint8_t { None, Fifo, Lifo };

/// What an event kind does to a container.
enum class Role : uint8_t { Foreign, Produce, Consume, Empty };

struct KindRole {
  Role R = Role::Foreign;
  End At = End::Back; ///< The end it works on (producers: Back).
};

/// One container's entry; see file comment.
struct ContainerSpec {
  const char *Name;         ///< "queue", "stack", "deque" (diagnostics).
  graph::OpKind Produce;    ///< Appends its value at the Back.
  graph::OpKind Consume[2]; ///< By End: removes the value there.
  graph::OpKind Empty[2];   ///< By End: finds the state empty.
  OrderAxiom Order;
  /// The producer and the Back operations all come from one thread (the
  /// owner), the Front ones from the other threads.
  bool SingleOwner;

  constexpr KindRole role(graph::OpKind K) const {
    if (K == graph::OpKind::Invalid)
      return {};
    if (K == Produce)
      return {Role::Produce, End::Back};
    for (End At : {End::Front, End::Back}) {
      if (K == Consume[unsigned(At)])
        return {Role::Consume, At};
      if (K == Empty[unsigned(At)])
        return {Role::Empty, At};
    }
    return {};
  }
};

/// The table, indexed by SeqSpec. Invalid marks an end with no operation.
inline constexpr ContainerSpec ContainerSpecs[] = {
    {"stack", graph::OpKind::Push,
     {graph::OpKind::Invalid, graph::OpKind::PopOk},
     {graph::OpKind::Invalid, graph::OpKind::PopEmpty}, OrderAxiom::Lifo,
     /*SingleOwner=*/false},
    {"queue", graph::OpKind::Enq,
     {graph::OpKind::DeqOk, graph::OpKind::Invalid},
     {graph::OpKind::DeqEmpty, graph::OpKind::Invalid}, OrderAxiom::Fifo,
     /*SingleOwner=*/false},
    {"deque", graph::OpKind::Push,
     {graph::OpKind::Steal, graph::OpKind::PopOk},
     {graph::OpKind::StealEmpty, graph::OpKind::PopEmpty}, OrderAxiom::None,
     /*SingleOwner=*/true},
};

constexpr const ContainerSpec &containerSpec(SeqSpec S) {
  return ContainerSpecs[unsigned(S)];
}

/// The outcome of applying one event to a SeqState.
enum class SeqStep : uint8_t {
  Ok,        ///< Legal; the state was updated.
  Foreign,   ///< Not an operation of this container.
  Underflow, ///< A consume on the empty state.
  Mismatch,  ///< A consume of a value other than the one at its end.
  NotEmpty   ///< An empty consume on a non-empty state.
};

/// The table-driven interpreter: a container's abstract state. Allocation-
/// free while at most 16 values have been produced since it was last empty.
class SeqState {
public:
  /// Applies \p E under \p S; the state changes only when the step is Ok.
  SeqStep apply(const ContainerSpec &S, const graph::Event &E) {
    KindRole K = S.role(E.Kind);
    switch (K.R) {
    case Role::Foreign:
      return SeqStep::Foreign;
    case Role::Produce:
      Vals.push_back(E.V1);
      return SeqStep::Ok;
    case Role::Empty:
      return empty() ? SeqStep::Ok : SeqStep::NotEmpty;
    case Role::Consume:
      if (empty())
        return SeqStep::Underflow;
      if (at(K.At) != E.V1)
        return SeqStep::Mismatch;
      if (K.At == End::Front)
        ++Head;
      else
        Vals.pop_back();
      if (empty()) { // Reuse the consumed front slots.
        Vals.clear();
        Head = 0;
      }
      return SeqStep::Ok;
    }
    return SeqStep::Foreign;
  }

  bool empty() const { return Head == Vals.size(); }
  size_t size() const { return Vals.size() - Head; }
  /// The value at \p At; the state must not be empty.
  rmc::Value at(End At) const {
    return At == End::Front ? Vals[Head] : Vals[Vals.size() - 1];
  }

  /// "[front,...,back]".
  std::string str() const {
    std::string Out = "[";
    for (size_t I = Head; I != Vals.size(); ++I)
      Out += (I != Head ? "," : "") + std::to_string(Vals[I]);
    return Out + "]";
  }

private:
  SmallVec<rmc::Value, 16> Vals; ///< Front at Vals[Head], back at the end.
  size_t Head = 0;
};

} // namespace compass::spec

#endif // COMPASS_SPEC_SEQSPEC_H
