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
///  * QueueConsistent (Figure 2): QUEUE-MATCHES, injectivity, so ⊆ lhb,
///    QUEUE-FIFO, QUEUE-EMPDEQ;
///  * StackConsistent (Sections 3.3/4.1): the LIFO analog;
///  * ExchangerConsistent (Figure 5 / Section 4.2): matched pairs carry
///    crossed values, symmetric so edges, and are committed atomically
///    (adjacent commit indices); failed exchanges return ⊥.
///
/// Together with the abstract-state checkers (LAT_abs_hb style: replay the
/// commit order against a FIFO/LIFO abstract state) and the linearization
/// search (LAT_hist_hb style, Linearization.h), these realize the paper's
/// three spec strengths as checkable predicates.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SPEC_CONSISTENCY_H
#define COMPASS_SPEC_CONSISTENCY_H

#include "graph/EventGraph.h"

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

/// Options for the queue/stack graph checks.
struct ContainerCheckOptions {
  /// When true, empty-dequeue/pop checks additionally require the matching
  /// consumer to have *committed before* the empty operation (a strict,
  /// commit-prefix reading of QUEUE-EMPDEQ; the paper's condition only
  /// forbids the consumer from happening-after). Our implementations
  /// satisfy the strict version too; see DESIGN.md.
  bool StrictEmpty = false;
};

/// Checks QueueConsistent(G) restricted to object \p ObjId.
CheckResult checkQueueConsistent(const graph::EventGraph &G, unsigned ObjId,
                                 ContainerCheckOptions Opts = {});

/// Checks StackConsistent(G) restricted to object \p ObjId.
CheckResult checkStackConsistent(const graph::EventGraph &G, unsigned ObjId,
                                 ContainerCheckOptions Opts = {});

/// Checks ExchangerConsistent(G) restricted to object \p ObjId.
CheckResult checkExchangerConsistent(const graph::EventGraph &G,
                                     unsigned ObjId);

/// Options for abstract-state (LAT_abs_hb) replay checks.
struct AbsStateOptions {
  /// Require the abstract state to be empty at DeqEmpty/PopEmpty commits.
  /// Only SC-strength (lock-based) implementations satisfy this; relaxed
  /// ones legitimately fail it (Section 2.3's "Abstract state and
  /// read-only operations" discussion).
  bool RequireTrueEmpty = false;
};

/// LAT_abs_hb for queues: replays object \p ObjId's commits in commit order
/// against a FIFO list, checking every successful dequeue pops the head.
CheckResult checkQueueAbsState(const graph::EventGraph &G, unsigned ObjId,
                               AbsStateOptions Opts = {});

/// LAT_abs_hb for stacks: LIFO replay.
CheckResult checkStackAbsState(const graph::EventGraph &G, unsigned ObjId,
                               AbsStateOptions Opts = {});

/// Consistency conditions for work-stealing deques (the paper's Section 6
/// future work, realized): the owner pushes and takes at the bottom
/// (Push / PopOk / PopEmpty, all by one thread), thieves steal from the
/// top (Steal / StealEmpty). Checks MATCHES, injectivity, so ⊆ lhb for
/// steals, single-owner discipline, and the empty axioms over lhb.
CheckResult checkWsDequeConsistent(const graph::EventGraph &G,
                                   unsigned ObjId,
                                   ContainerCheckOptions Opts = {});

/// LAT_abs_hb for work-stealing deques: replays the commit order against
/// a double-ended abstract state — pushes append at the bottom, owner
/// takes remove from the bottom, steals remove from the top.
CheckResult checkWsDequeAbsState(const graph::EventGraph &G, unsigned ObjId,
                                 AbsStateOptions Opts = {});

} // namespace compass::spec

#endif // COMPASS_SPEC_CONSISTENCY_H
