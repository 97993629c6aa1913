//===-- support/Choice.h - Nondeterminism resolution interface -*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single funnel through which every source of nondeterminism in a
/// simulated execution is resolved, and the vocabulary naming its kinds:
/// which thread steps next, and which message a load, spin-load or CAS
/// reads. The model checker's Explorer implements this interface to
/// enumerate all decision sequences (stateless DFS); replay and the tests
/// implement it to drive one fixed or scripted sequence.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SUPPORT_CHOICE_H
#define COMPASS_SUPPORT_CHOICE_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace compass {

/// What a decision resolves. Declared in name order, so per-kind listings
/// (summary JSON, checkpoint tag records) come out sorted by name.
enum class ChoiceKind : uint8_t {
  Cas,       ///< "cas": CAS success, or which message a failing CAS reads.
  Load,      ///< "load": which message a load reads.
  LoadWhere, ///< "load-where": which matching message a spin-load reads.
  Sched      ///< "sched": which enabled thread steps next.
};

/// Number of ChoiceKind values, for per-kind tables.
inline constexpr size_t NumChoiceKinds =
    static_cast<size_t>(ChoiceKind::Sched) + 1;

/// The kind's spelling in traces, summaries and checkpoints.
const char *choiceKindName(ChoiceKind K);

/// Inverse of choiceKindName; false on any other word.
bool parseChoiceKind(std::string_view S, ChoiceKind &Out);

/// Resolves one bounded nondeterministic choice at a time.
class ChoiceSource {
public:
  virtual ~ChoiceSource();

  /// Returns a value in [0, Limit). The decision is *recorded* at arity
  /// \p Count, but only alternatives in [0, Limit) are enumerated; requires
  /// 1 <= Limit <= Count. Limit < Count is the source-set restricted form
  /// of a load or CAS: restricted sets are prefixes of the unrestricted
  /// newest-first enumeration, so indices keep their meaning and a
  /// reduction-free replay of the trace sees the same decision stream.
  /// The machine calls it even when the restricted set collapses to one
  /// alternative, so the recorded stream keeps one decision per
  /// unrestricted multi-alternative site.
  virtual unsigned choose(unsigned Count, unsigned Limit, ChoiceKind K) = 0;

  /// Number of decisions this source has resolved in the current execution.
  /// Exhaustive sources (the explorer's decision tree) report their position
  /// so the copy-on-write engine can mark decision boundaries; sources with
  /// no such notion return 0.
  virtual size_t decisionPosition() const { return 0; }
};

/// A trivial source that always picks alternative 0 (the newest message, the
/// first enabled thread). Useful for smoke tests and sequential examples.
class FirstChoice final : public ChoiceSource {
public:
  unsigned choose(unsigned Count, unsigned Limit, ChoiceKind K) override;
};

} // namespace compass

#endif // COMPASS_SUPPORT_CHOICE_H
