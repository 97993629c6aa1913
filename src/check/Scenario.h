//===-- check/Scenario.h - Generated concurrent scenarios -------*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value types of the conformance harness (DESIGN.md §7): a *scenario*
/// is a bounded concurrent program over one library instance — per-thread
/// straight-line operation lists plus the exploration knobs — compact
/// enough to serialize, shrink, and replay. A *mutation* (lib::Mutation)
/// names one fault seeded into a src/lib library, used to prove the
/// harness catches real relaxed-memory bugs. A *corpus entry* bundles
/// a shrunk counterexample (scenario + mutation + decision trace) for the
/// regression corpus under tests/corpus/.
///
/// Serialization is a line-based text format, diffable and hand-editable:
///
///   lib=treiber_stack
///   mut=treiber_pop_below_top
///   seed=7
///   pb=2
///   cap=0
///   thread=push:1,push:2,pop
///   thread=pop
///   decisions=0,1,0,2
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_CHECK_SCENARIO_H
#define COMPASS_CHECK_SCENARIO_H

#include "lib/Container.h"
#include "rmc/Memory.h"
#include "spec/SeqSpec.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace compass::check {

/// The library a scenario runs against.
enum class Lib : uint8_t {
  MsQueue,
  HwQueue,
  TreiberStack,
  ElimStack,
  Exchanger,
  SpscRing,
  WsDeque,
  TreiberEbr ///< Treiber stack with simulated epoch-based reclamation.
};

inline constexpr unsigned NumLibs = 8;

/// All libraries, in a stable order (indexable by static_cast<unsigned>).
const Lib *allLibs();

/// Stable snake_case name ("ms_queue", ...). parseLib returns false on an
/// unknown name.
const char *libName(Lib L);
bool parseLib(const std::string &Name, Lib &Out);

/// The sequential spec \p L is checked against (selects the reference
/// model); empty for the exchanger, which has none.
std::optional<spec::SeqSpec> libSpec(Lib L);

/// The spec strength a library is *specified* to satisfy — the reference
/// model checks each library at exactly this strength, no stronger.
enum class SpecStrength : uint8_t {
  HbOnly,       ///< LAT_hb: graph consistency axioms + observed results.
  Linearizable, ///< LAT_hist_hb: additionally some total order `to ⊇ lhb`
                ///< replayable by the sequential oracle must exist.
};

/// HwQueue -> HbOnly (the paper's §3.2 separation: the relaxed
/// Herlihy-Wing queue satisfies the graph-based LAT_hb conditions but
/// admits executions with *no* linearizable-history witness, so demanding
/// one would flag the paper's own expected behaviour as a violation);
/// every other library -> Linearizable.
SpecStrength libStrength(Lib L);

/// One operation of a scenario thread.
enum class OpCode : uint8_t {
  Enq,      ///< Queue/ring enqueue of Arg.
  Deq,      ///< Queue/ring dequeue.
  Push,     ///< Stack/deque push of Arg.
  Pop,      ///< Stack pop.
  Exchange, ///< Exchanger exchange of Arg.
  Take,     ///< Deque owner take.
  Steal     ///< Deque thief steal.
};

const char *opCodeName(OpCode C); ///< "enq", "deq", ...

struct Op {
  OpCode Code;
  rmc::Value Arg = 0; ///< Producer/exchange payload; 0 for consumers.
};

/// A bounded concurrent scenario; see file comment.
struct Scenario {
  Lib L = Lib::MsQueue;
  uint64_t Seed = 0;          ///< Generator seed (provenance only).
  unsigned PreemptionBound = 2;
  unsigned Capacity = 0;      ///< HwQueue/SpscRing/WsDeque capacity.
  std::vector<std::vector<Op>> Threads;

  unsigned numOps() const {
    unsigned N = 0;
    for (const auto &T : Threads)
      N += static_cast<unsigned>(T.size());
    return N;
  }

  /// One-line human-readable rendering:
  /// `treiber_stack pb=2 T0[push:1,pop] T1[pop]`.
  std::string str() const;
};

/// The seeded library faults, defined beside the libraries that apply
/// them (lib/Container.h).
using lib::Mutation;

inline constexpr unsigned NumMutations = 10; ///< Including None.

const char *mutationName(Mutation M); ///< "none", "ms_queue_relaxed_publish", ...
bool parseMutation(const std::string &Name, Mutation &Out);

/// The library a mutation applies to (None -> MsQueue, unused).
Lib mutationLib(Mutation M);

/// Human explanation of what the mutation breaks.
const char *mutationDescription(Mutation M);

/// A persisted counterexample: scenario + mutation + the decision trace of
/// a failing execution. Replaying Decisions against the mutated library
/// must fail; exploring the scenario against the pristine library must
/// find no violation (tests/CorpusTest.cpp enforces both).
struct CorpusEntry {
  Scenario S;
  Mutation Mut = Mutation::None;
  std::vector<unsigned> Decisions;
  std::string Note; ///< Free-form provenance (the leading # comment line).
};

/// Serializes \p E in the line format of the file comment.
std::string formatCorpusEntry(const CorpusEntry &E);

/// Parses the line format; on failure returns false and sets \p Err.
bool parseCorpusEntry(const std::string &Text, CorpusEntry &Out,
                      std::string &Err);

} // namespace compass::check

#endif // COMPASS_CHECK_SCENARIO_H
