//===-- spec/Linearization.h - LAT_hist linearization search ----*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LAT_hist_hb check of Section 3.3 / Figure 4: a recorded history H
/// satisfies the linearizable-history spec iff there exists a total order
/// `to` that (a) is a permutation of H's events, (b) *respects* lhb
/// (H.lhb ⊆ to), and (c) is interpretable by the sequential semantics
/// (`interp(to, vs)`): pushes push, successful pops pop the top, and empty
/// pops occur only at truly-empty states. The search is a memoized DFS over
/// lhb-downward-closed prefixes (Wing-Gong style), feasible because model-
/// checked workloads are small.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SPEC_LINEARIZATION_H
#define COMPASS_SPEC_LINEARIZATION_H

#include "graph/EventGraph.h"
#include "spec/SeqSpec.h"

#include <cstdint>
#include <vector>

namespace compass::spec {

struct LinearizationResult {
  bool Found = false;
  /// A witnessing total order (event ids), when Found.
  std::vector<graph::EventId> Order;
  /// Search effort, for reporting.
  uint64_t StatesExplored = 0;
  /// The state budget (LinearizeLimits::MaxStates) was exhausted before the
  /// search concluded; Found=false then means "unknown", not "no witness".
  bool Aborted = false;
};

/// Resource bounds for the linearization search, so machine-generated
/// scenario sweeps (src/check/) cannot wedge on a pathological history.
struct LinearizeLimits {
  /// Maximum DFS states to explore; 0 = unlimited.
  uint64_t MaxStates = 0;
};

/// Searches for a linearization of object \p ObjId's committed events.
/// Supports histories of up to 64 events (model-checked workloads are far
/// smaller).
LinearizationResult findLinearization(const graph::EventGraph &G,
                                      unsigned ObjId, SeqSpec Spec,
                                      LinearizeLimits Limits = {});

} // namespace compass::spec

#endif // COMPASS_SPEC_LINEARIZATION_H
