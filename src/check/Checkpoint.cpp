//===-- check/Checkpoint.cpp - Resumable conformance sweeps ---------------===//
//
// Text grammar (version "compass sweep-checkpoint v3"; one record per
// line, space-separated fields; free-form strings are %-escaped into
// single tokens, "%" standing in for the empty string):
//
//   compass sweep-checkpoint v3
//   config <Seed> <ScenariosPerLib> <MaxExecsPerScenario> <none|source>
//   gen <MinThreads> <MaxThreads> <MinOps> <MaxOps> <MinPre> <MaxPre>
//   libs <N>
//   lib <name>                                          (N lines)
//   progress <Fp> <LibIndex> <ScenarioIndex> <NDone> <HasScenario>
//            <ScenarioLinAborts>
//   stat <lib> <Scenarios> <Executions> <Completed> <Races> <Deadlocks>
//        <Violations> <SleepPruned> <RfPruned> <SourcePruned>
//        <MaxDepth> <LinAborts> <Truncated>
//        <FirstBadScenario> <FirstBad>        (NDone lines, then CurLib)
//   snapshot v3 ... end snapshot              (iff HasScenario; the
//                                              embedded sim grammar)
//   end sweep-checkpoint
//
// The config line records the reduction mode the executed share ran
// under; resuming under a different one would splice incompatible
// exploration states (the caller enforces the match — see compass_check
// sweep --resume). Earlier versions are rejected: v2 also recorded an
// engine path, and v1 carried a duplicate-rf cache counter in every stat
// record.
//
//===----------------------------------------------------------------------===//

#include "check/Checkpoint.h"

#include "sim/LineRecords.h"

#include <cstdio>
#include <sstream>

using namespace compass;
using namespace compass::check;

namespace {

/// %-escapes \p S into one whitespace-free token ("%" = empty string).
std::string encodeToken(const std::string &S) {
  if (S.empty())
    return "%";
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    if (C > 0x20 && C < 0x7f && C != '%') {
      Out += static_cast<char>(C);
    } else {
      char Buf[4];
      std::snprintf(Buf, sizeof(Buf), "%%%02X", C);
      Out += Buf;
    }
  }
  return Out;
}

bool decodeToken(const std::string &T, std::string &Out) {
  Out.clear();
  if (T == "%")
    return true;
  for (size_t I = 0; I < T.size();) {
    if (T[I] != '%') {
      Out += T[I++];
      continue;
    }
    if (I + 2 >= T.size())
      return false;
    auto Hex = [](char C) -> int {
      if (C >= '0' && C <= '9')
        return C - '0';
      if (C >= 'A' && C <= 'F')
        return C - 'A' + 10;
      if (C >= 'a' && C <= 'f')
        return C - 'a' + 10;
      return -1;
    };
    int Hi = Hex(T[I + 1]), Lo = Hex(T[I + 2]);
    if (Hi < 0 || Lo < 0)
      return false;
    Out += static_cast<char>(Hi * 16 + Lo);
    I += 3;
  }
  return true;
}

using sim::detail::Fields;
using sim::detail::LineCursor;

void writeStat(std::ostringstream &OS, const LibSweepStats &St) {
  OS << "stat " << libName(St.L) << ' ' << St.Scenarios << ' '
     << St.Executions << ' ' << St.Completed << ' ' << St.Races << ' '
     << St.Deadlocks << ' ' << St.Violations << ' ' << St.SleepPruned << ' '
     << St.RfPruned << ' ' << St.SourcePruned << ' ' << St.MaxDepth << ' '
     << St.LinAborts << ' ' << St.Truncated << ' ' << St.FirstBadScenario
     << ' ' << encodeToken(St.FirstBad) << '\n';
}

bool parseStat(LineCursor &C, LibSweepStats &St) {
  if (!C.next())
    return false;
  Fields F(C.Line);
  if (!expectKeyword(C, "stat", F))
    return false;
  std::string Name, Enc;
  if (!F.word(Name) || !parseLib(Name, St.L))
    return C.fail("bad library in stat record");
  if (!F.num(St.Scenarios) || !F.num(St.Executions) || !F.num(St.Completed) ||
      !F.num(St.Races) || !F.num(St.Deadlocks) || !F.num(St.Violations) ||
      !F.num(St.SleepPruned) || !F.num(St.RfPruned) ||
      !F.num(St.SourcePruned) || !F.num(St.MaxDepth) ||
      !F.num(St.LinAborts) || !F.num(St.Truncated) ||
      !F.num(St.FirstBadScenario) || !F.word(Enc) ||
      !decodeToken(Enc, St.FirstBad))
    return C.fail("malformed stat record");
  return true;
}

} // namespace

std::string check::serializeSweepCheckpoint(const SweepCheckpoint &C) {
  std::ostringstream OS;
  OS << "compass sweep-checkpoint v3\n";
  OS << "config " << C.Seed << ' ' << C.ScenariosPerLib << ' '
     << C.MaxExecutionsPerScenario << ' '
     << sim::reductionModeName(C.Reduction) << '\n';
  OS << "gen " << C.Gen.MinThreads << ' ' << C.Gen.MaxThreads << ' '
     << C.Gen.MinOpsPerThread << ' ' << C.Gen.MaxOpsPerThread << ' '
     << C.Gen.MinPreemptions << ' ' << C.Gen.MaxPreemptions << '\n';
  OS << "libs " << C.Libs.size() << '\n';
  for (Lib L : C.Libs)
    OS << "lib " << libName(L) << '\n';
  OS << "progress " << C.Fp << ' ' << C.LibIndex << ' ' << C.ScenarioIndex
     << ' ' << C.DoneLibs.size() << ' ' << unsigned(C.HasScenario) << ' '
     << C.ScenarioLinAborts << '\n';
  for (const LibSweepStats &St : C.DoneLibs)
    writeStat(OS, St);
  writeStat(OS, C.CurLib);
  if (C.HasScenario)
    OS << sim::serializeSnapshot(C.Scenario);
  OS << "end sweep-checkpoint\n";
  return OS.str();
}

bool check::parseSweepCheckpoint(std::string_view Text, SweepCheckpoint &Out,
                                 std::string &Err) {
  Out = SweepCheckpoint{};
  LineCursor C(Text, "checkpoint");
  auto Done = [&](bool Ok) {
    if (!Ok)
      Err = C.Err;
    return Ok;
  };

  if (!C.next())
    return Done(false);
  if (C.Line != "compass sweep-checkpoint v3")
    return Done(C.fail("unsupported checkpoint header "
                       "(want 'compass sweep-checkpoint v3')"));

  if (!C.next())
    return Done(false);
  {
    Fields F(C.Line);
    std::string Red;
    if (!expectKeyword(C, "config", F) || !F.num(Out.Seed) ||
        !F.num(Out.ScenariosPerLib) || !F.num(Out.MaxExecutionsPerScenario) ||
        !F.word(Red))
      return Done(C.fail("malformed config record"));
    if (!sim::parseReductionMode(Red, Out.Reduction))
      return Done(C.fail("unknown reduction '" + Red + "'"));
  }

  if (!C.next())
    return Done(false);
  {
    Fields F(C.Line);
    if (!expectKeyword(C, "gen", F) || !F.num(Out.Gen.MinThreads) ||
        !F.num(Out.Gen.MaxThreads) || !F.num(Out.Gen.MinOpsPerThread) ||
        !F.num(Out.Gen.MaxOpsPerThread) || !F.num(Out.Gen.MinPreemptions) ||
        !F.num(Out.Gen.MaxPreemptions))
      return Done(C.fail("malformed gen record"));
  }

  uint64_t NLibs = 0;
  if (!C.next())
    return Done(false);
  {
    Fields F(C.Line);
    if (!expectKeyword(C, "libs", F) || !F.num(NLibs) || NLibs == 0)
      return Done(C.fail("malformed libs record"));
  }
  for (uint64_t I = 0; I != NLibs; ++I) {
    if (!C.next())
      return Done(false);
    Fields F(C.Line);
    std::string Name;
    Lib L;
    if (!expectKeyword(C, "lib", F) || !F.word(Name) || !parseLib(Name, L))
      return Done(C.fail("malformed lib record"));
    Out.Libs.push_back(L);
  }

  uint64_t NDone = 0;
  if (!C.next())
    return Done(false);
  {
    Fields F(C.Line);
    if (!expectKeyword(C, "progress", F) || !F.num(Out.Fp) ||
        !F.num(Out.LibIndex) || !F.num(Out.ScenarioIndex) || !F.num(NDone) ||
        !F.flag(Out.HasScenario) || !F.num(Out.ScenarioLinAborts))
      return Done(C.fail("malformed progress record"));
  }
  if (Out.LibIndex >= Out.Libs.size())
    return Done(C.fail("library position beyond library list"));
  if (Out.ScenarioIndex > Out.ScenariosPerLib)
    return Done(C.fail("scenario position beyond per-lib count"));
  if (NDone != Out.LibIndex)
    return Done(C.fail("completed-library count does not match position"));

  for (uint64_t I = 0; I != NDone; ++I) {
    LibSweepStats St;
    if (!parseStat(C, St))
      return Done(false);
    Out.DoneLibs.push_back(std::move(St));
  }
  if (!parseStat(C, Out.CurLib))
    return Done(false);
  if (Out.CurLib.L != Out.Libs[Out.LibIndex])
    return Done(C.fail("current-library stat does not match position"));

  if (Out.HasScenario) {
    // The embedded snapshot starts at the next line; its parser validates
    // its own header/footer and ignores our trailing records.
    if (!sim::parseSnapshot(C.rest(), Out.Scenario, Err)) {
      Err = "embedded snapshot: " + Err;
      return false;
    }
    // Skip past the embedded block in our cursor.
    for (;;) {
      if (!C.next())
        return Done(false);
      if (C.Line == "end snapshot")
        break;
    }
  }

  if (!C.next())
    return Done(false);
  if (C.Line != "end sweep-checkpoint")
    return Done(C.fail("expected 'end sweep-checkpoint'"));
  return true;
}
