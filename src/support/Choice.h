//===-- support/Choice.h - Nondeterminism resolution interface -*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single funnel through which every source of nondeterminism in a
/// simulated execution is resolved: scheduler picks, which message a relaxed
/// or acquire load reads from, and CAS success/failure alternatives. The
/// model checker's Explorer implements this interface to enumerate all
/// decision sequences (stateless DFS) or to sample them randomly.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SUPPORT_CHOICE_H
#define COMPASS_SUPPORT_CHOICE_H

#include <cstddef>

namespace compass {

/// Resolves one bounded nondeterministic choice at a time.
class ChoiceSource {
public:
  virtual ~ChoiceSource();

  /// Returns a value in [0, Count). \p Count must be at least 1. \p Tag is a
  /// static string naming the decision kind, for diagnostics and traces.
  virtual unsigned choose(unsigned Count, const char *Tag) = 0;

  /// choose() with a restricted enumeration: the decision is *recorded* at
  /// arity \p Count (so a reduction-free replay of the trace sees the same
  /// decision stream — restricted sets are prefixes of the unrestricted
  /// newest-first enumeration, indices mean the same thing), but only
  /// alternatives in [0, Limit) are enumerated. Requires 1 <= Limit <=
  /// Count. Used by the machine when a source-set reads-from floor cuts a
  /// load/CAS choice set; must be called even when the restricted set
  /// collapses to a single alternative, precisely so the recorded stream
  /// keeps one decision per unrestricted multi-alternative site. Sources
  /// without an enumeration notion resolve it like a plain choose().
  virtual unsigned chooseLimited(unsigned Count, unsigned Limit,
                                 const char *Tag) {
    (void)Limit;
    return choose(Count, Tag);
  }

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
  unsigned choose(unsigned Count, const char *Tag) override;
};

} // namespace compass

#endif // COMPASS_SUPPORT_CHOICE_H
