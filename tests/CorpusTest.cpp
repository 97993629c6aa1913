//===-- tests/CorpusTest.cpp - Regression corpus replay -------------------===//
//
// Replays every entry under tests/corpus/. Each entry persists a shrunk
// counterexample for one seeded mutation (check/Scenario.h), and the
// corpus contract is two-sided:
//
//  * the recorded decision trace, replayed against the MUTATED library,
//    must still fail (the bug is still caught after refactors), and
//  * exploring the same scenario against the PRISTINE library must find
//    no violation (the entry flags a mutant, not the oracle).
//
//===----------------------------------------------------------------------===//

#include "check/Conformance.h"
#include "check/Harness.h"
#include "check/Shrinker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

using namespace compass;
using namespace compass::check;

#ifndef COMPASS_CORPUS_DIR
#error "COMPASS_CORPUS_DIR must point at tests/corpus"
#endif

namespace {

std::vector<std::filesystem::path> corpusFiles() {
  std::vector<std::filesystem::path> Files;
  for (const auto &Ent :
       std::filesystem::directory_iterator(COMPASS_CORPUS_DIR))
    if (Ent.is_regular_file() && Ent.path().extension() == ".corpus")
      Files.push_back(Ent.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::string slurp(const std::filesystem::path &P) {
  std::ifstream In(P);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

CorpusEntry parseFileOrFail(const std::filesystem::path &P) {
  CorpusEntry E;
  std::string Err;
  EXPECT_TRUE(parseCorpusEntry(slurp(P), E, Err))
      << P.filename() << ": " << Err;
  return E;
}

} // namespace

TEST(Corpus, DirectoryIsNonEmpty) {
  // Guards against the corpus silently vanishing (e.g. a bad glob in a
  // build-tree move): we ship at least one entry per seeded mutation.
  EXPECT_GE(corpusFiles().size(), NumMutations - 1)
      << "expected at least one corpus entry per mutation under "
      << COMPASS_CORPUS_DIR;
}

TEST(Corpus, EveryMutationIsCovered) {
  std::vector<bool> Seen(NumMutations, false);
  for (const auto &P : corpusFiles()) {
    CorpusEntry E = parseFileOrFail(P);
    Seen[static_cast<unsigned>(E.Mut)] = true;
  }
  for (unsigned I = 1; I != NumMutations; ++I)
    EXPECT_TRUE(Seen[I]) << "no corpus entry for mutation "
                         << mutationName(static_cast<Mutation>(I));
}

TEST(Corpus, EntriesRoundTripThroughSerialization) {
  for (const auto &P : corpusFiles()) {
    SCOPED_TRACE(P.filename().string());
    CorpusEntry E = parseFileOrFail(P);
    CorpusEntry E2;
    std::string Err;
    ASSERT_TRUE(parseCorpusEntry(formatCorpusEntry(E), E2, Err)) << Err;
    EXPECT_EQ(E.S.str(), E2.S.str());
    EXPECT_EQ(E.Mut, E2.Mut);
    EXPECT_EQ(E.Decisions, E2.Decisions);
    EXPECT_EQ(E.Note, E2.Note);
  }
}

TEST(Corpus, ReplaysFailAgainstMutant) {
  for (const auto &P : corpusFiles()) {
    SCOPED_TRACE(P.filename().string());
    CorpusEntry E = parseFileOrFail(P);
    ASSERT_NE(E.Mut, Mutation::None) << "corpus entries must name a mutant";
    TraceDiagnosis D =
        diagnoseTrace(E.S, E.Mut, scenarioOptions(E.S, 1, 1), E.Decisions);
    EXPECT_TRUE(D.failing())
        << "recorded counterexample no longer fails against "
        << mutationName(E.Mut) << "; scenario: " << E.S.str()
        << "; verdict: " << D.V.str();
    EXPECT_FALSE(D.RR.Diverged)
        << "recorded trace diverged on replay; re-emit the corpus with "
           "compass_check mutants --emit-corpus";
    // The note ("<description>; rule <R>") records why the trace failed
    // when it was shrunk; the replay must fail for that same reason.
    size_t At = E.Note.rfind("; rule ");
    ASSERT_NE(At, std::string::npos) << "note names no rule: " << E.Note;
    EXPECT_EQ(D.V.Rule, E.Note.substr(At + 7)) << D.V.str();
    // Verdicts are embedded mid-line (replay output, the sweep's first_bad,
    // telemetry records), so their text must not end a line.
    std::string Text = D.V.str();
    ASSERT_FALSE(Text.empty());
    EXPECT_NE(Text.back(), '\n') << Text;
  }
}

TEST(Corpus, EbrShrinkPreservesReclamationFault) {
  // Shrinking an EBR counterexample must hand back a reproduction that
  // still fails for the reclamation-protocol reason. The hazard specific
  // to this family: every pin/unpin pair lives inside one scenario op, so
  // a structurally valid drop-thread/drop-op candidate can never strand an
  // open pin session or orphan a retire — but a careless trace truncation
  // (pass 4) could still turn the violation into a DEADLOCK or STEP-LIMIT
  // artifact. Lock in the full contract.
  for (const auto &P : corpusFiles()) {
    CorpusEntry E = parseFileOrFail(P);
    if (E.S.L != Lib::TreiberEbr)
      continue;
    SCOPED_TRACE(P.filename().string());
    ShrinkResult R = shrinkCounterexample(E.S, E.Mut, E.Decisions);
    TraceDiagnosis D =
        diagnoseTrace(R.Min, E.Mut, scenarioOptions(R.Min, 1, 1), R.Decisions);
    ASSERT_TRUE(D.failing())
        << "shrunk EBR counterexample no longer fails: " << R.Min.str();
    EXPECT_FALSE(D.RR.Diverged)
        << "shrunk EBR trace is not divergence-free: " << R.Min.str();
    // The fault must be the machine-level reclamation fault, not a
    // secondary artifact of the shrink.
    EXPECT_EQ(D.Run, sim::Scheduler::RunResult::Race)
        << "shrunk verdict: " << D.V.str();
    EXPECT_TRUE(D.V.Rule == "USE_AFTER_RETIRE" ||
                D.V.Rule == "PREMATURE_FREE")
        << "shrunk verdict: " << D.V.str();
    // And the shrunk scenario must stay clean against the pristine stack.
    std::vector<unsigned> Failing;
    EXPECT_FALSE(scenarioFails(R.Min, Mutation::None, 100000, Failing))
        << "pristine library fails shrunk scenario " << R.Min.str()
        << "; failing trace: " << sim::formatReplayCall(Failing);
  }
}

TEST(Corpus, PristineExplorationIsClean) {
  for (const auto &P : corpusFiles()) {
    SCOPED_TRACE(P.filename().string());
    CorpusEntry E = parseFileOrFail(P);
    std::vector<unsigned> Failing;
    EXPECT_FALSE(scenarioFails(E.S, Mutation::None, 100000, Failing))
        << "pristine library fails corpus scenario " << E.S.str()
        << "; failing trace: " << sim::formatReplayCall(Failing);
  }
}
