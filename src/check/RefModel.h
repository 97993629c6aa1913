//===-- check/RefModel.h - Sequential reference oracles ---------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference side of the conformance harness: given one execution's
/// recorded event graph and the per-thread observed results, decide whether
/// the execution is explained by the library's sequential specification.
/// Every container step reads the container's one spec::ContainerSpec entry
/// (spec/SeqSpec.h). The pipeline per execution (DESIGN.md §7):
///
///  1. INJ prescan — duplicated/multi-matched so edges are reported before
///     any axiom checker runs (those assume injectivity);
///  2. graph consistency — spec::checkConsistent's Yacovet-style axioms;
///  3. linearization witness — spec::findLinearization searches for a total
///     order `to ⊇ lhb` interpretable by the sequential spec (the paper's
///     LAT_hist_hb reduction, §3.3), under a state budget. Run only for
///     libraries *specified* at that strength (libStrength): the relaxed
///     Herlihy-Wing queue is checked at LAT_hb only, since the paper's
///     §3.2 separation means a witness need not exist for it;
///  4. witness oracle — checkWitnessOrder re-checks all of LAT_hist_hb on
///     the witness with the table-driven spec::SeqState, not with the
///     search's own step, so a bug in the search cannot certify a bogus
///     witness;
///  5. OBS — each thread's observed results must match its committed
///     events in program order (catches mutants that corrupt return values
///     while leaving the graph consistent).
///
/// Exchangers have no sequential spec; steps 1-4 are replaced by the
/// pairing axioms of spec::checkExchangerConsistent.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_CHECK_REFMODEL_H
#define COMPASS_CHECK_REFMODEL_H

#include "check/Scenario.h"
#include "graph/EventGraph.h"
#include "spec/Linearization.h"

#include <optional>
#include <string>
#include <vector>

namespace compass::check {

/// One op as the harness observed it at runtime.
struct Observed {
  OpCode Code;
  rmc::Value Arg = 0;    ///< Producer/exchange payload.
  rmc::Value Result = 0; ///< What the op returned (see Harness.h mapping).
};

/// Structured conformance verdict for one execution.
struct Verdict {
  bool Ok = true;
  std::string Rule;   ///< Violated rule ("INJ", "QUEUE-FIFO", "WITNESS",
                      ///< "ORACLE", "OBS", "RACE", ...). Empty when Ok.
  std::string Detail; ///< Human-readable mismatch diagnostics.
  bool LinAborted = false; ///< The state budget ran out (result unknown;
                           ///< treated as pass, counted by the driver).

  std::string str() const {
    return Ok ? std::string("ok") : Rule + ": " + Detail;
  }

  static Verdict fail(std::string Rule, std::string Detail) {
    Verdict V;
    V.Ok = false;
    V.Rule = std::move(Rule);
    V.Detail = std::move(Detail);
    return V;
  }
};

/// Checks one execution of object \p ObjId in \p G against its reference
/// model: container \p Spec, or the exchanger when empty (libSpec); see
/// the file comment for the pipeline. \p PerThread holds each scenario
/// thread's observed ops in program order (indexed by *scenario* thread id
/// == rmc thread id). \p Strength selects how much of the pipeline
/// applies: HbOnly skips steps 3-4 (no linearization witness is demanded —
/// the LAT_hb-only libraries legitimately lack one).
Verdict checkExecution(const graph::EventGraph &G, unsigned ObjId,
                       std::optional<spec::SeqSpec> Spec,
                       const std::vector<std::vector<Observed>> &PerThread,
                       spec::LinearizeLimits Limits = {200000},
                       SpecStrength Strength = SpecStrength::Linearizable);

/// The witness oracle (step 4): \p Order must list each of object
/// \p ObjId's committed events exactly once, never after one of its
/// lhb-successors, and replay legally through \p Spec's sequential
/// semantics. Returns ok or an ORACLE failure.
Verdict checkWitnessOrder(const graph::EventGraph &G, unsigned ObjId,
                          spec::SeqSpec Spec,
                          const std::vector<graph::EventId> &Order);

} // namespace compass::check

#endif // COMPASS_CHECK_REFMODEL_H
