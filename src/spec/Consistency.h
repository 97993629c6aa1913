//===-- spec/Consistency.h - Library consistency conditions -----*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Yacovet-style consistency conditions of the paper, as runtime checks
/// over a recorded event graph:
///
///  * checkConsistent: the container graph axioms, read from the container's
///    spec::ContainerSpec entry (spec/SeqSpec.h) — QueueConsistent (Figure
///    2: QUEUE-MATCHES, injectivity, so ⊆ lhb, QUEUE-FIFO, QUEUE-EMPDEQ),
///    its LIFO analog for stacks (Sections 3.3/4.1), and for work-stealing
///    deques the same structure and empty axioms at both ends plus the
///    single-owner rule;
///  * ExchangerConsistent (Figure 5 / Section 4.2): matched pairs carry
///    crossed values, symmetric so edges, and are committed atomically
///    (adjacent commit indices); failed exchanges return ⊥.
///
/// Together with the abstract-state replay (LAT_abs_hb style: replay the
/// commit order through the same entry's sequential semantics) and the
/// linearization search (LAT_hist_hb style, Linearization.h), these realize
/// the paper's three spec strengths as checkable predicates.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SPEC_CONSISTENCY_H
#define COMPASS_SPEC_CONSISTENCY_H

#include "graph/EventGraph.h"
#include "spec/SeqSpec.h"

#include <string>
#include <vector>

namespace compass::spec {

/// The outcome of a consistency check: a (possibly empty) list of violated
/// conditions with human-readable details.
struct CheckResult {
  std::vector<std::string> Violations;

  bool ok() const { return Violations.empty(); }
  void add(std::string Rule, std::string Detail) {
    Violations.push_back(std::move(Rule) + ": " + std::move(Detail));
  }
  /// "consistent", or the violations joined by "; " on one line (verdicts
  /// are embedded mid-line in replay output, sweep reports and telemetry).
  std::string str() const;
};

/// Options for the container graph checks.
struct ContainerCheckOptions {
  /// When true, empty-consume checks additionally require the matching
  /// consumer to have *committed before* the empty operation (a strict,
  /// commit-prefix reading of QUEUE-EMPDEQ; the paper's condition only
  /// forbids the consumer from happening-after). Our implementations
  /// satisfy the strict version too; see DESIGN.md.
  bool StrictEmpty = false;
};

/// Checks \p Spec's graph axioms (see file comment) restricted to object
/// \p ObjId.
CheckResult checkConsistent(const graph::EventGraph &G, unsigned ObjId,
                            SeqSpec Spec, ContainerCheckOptions Opts = {});

/// Checks ExchangerConsistent(G) restricted to object \p ObjId.
CheckResult checkExchangerConsistent(const graph::EventGraph &G,
                                     unsigned ObjId);

/// Options for abstract-state (LAT_abs_hb) replay checks.
struct AbsStateOptions {
  /// Require the abstract state to be empty at empty-consume commits.
  /// Only SC-strength (lock-based) implementations satisfy this; relaxed
  /// ones legitimately fail it (Section 2.3's "Abstract state and
  /// read-only operations" discussion).
  bool RequireTrueEmpty = false;
};

/// LAT_abs_hb: replays object \p ObjId's commits in commit order through
/// \p Spec's sequential semantics (spec::SeqState), checking that every
/// successful consume removes the value at its end.
CheckResult checkAbsState(const graph::EventGraph &G, unsigned ObjId,
                          SeqSpec Spec, AbsStateOptions Opts = {});

} // namespace compass::spec

#endif // COMPASS_SPEC_CONSISTENCY_H
