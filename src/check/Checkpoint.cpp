//===-- check/Checkpoint.cpp - Resumable conformance sweeps ---------------===//
//
// Text grammar (version "compass sweep-checkpoint v4"; one record per
// line, space-separated fields; free-form strings are %-escaped into
// single tokens, "%" standing in for the empty string):
//
//   compass sweep-checkpoint v4
//   config <Seed> <ScenariosPerLib> <MaxExecsPerScenario> <none|source>
//   gen <MinThreads> <MaxThreads> <MinOps> <MaxOps> <MinPre> <MaxPre>
//   libs <N>
//   lib <name>                                          (N lines)
//   progress <Fp> <LibIndex> <ScenarioIndex> <NDone> <NAhead>
//   stat <lib> <Scenarios> <Executions> <Completed> <Races> <Deadlocks>
//        <Violations> <SleepPruned> <RfPruned> <SourcePruned>
//        <MaxDepth> <LinAborts> <Truncated>
//        <FirstBadScenario> <FirstBad>        (NDone lines, then CurLib)
//   ahead <Index> <Executions> <Completed> <Races> <Deadlocks>
//         <Violations> <SleepPruned> <RfPruned> <SourcePruned>
//         <MaxDepth> <LinAborts> <Truncated>
//         <NDecisions> <Decision>...          (NAhead lines, by Index)
//   end sweep-checkpoint
//
// An ahead record is a scenario past the position that finished before
// the run stopped; its library is Libs[Index / ScenariosPerLib]. A record
// with fields left over is rejected.
//
// The config line records the reduction mode the folded scenarios ran
// under; resuming under a different one would splice incompatible
// fingerprints (the caller enforces the match — see compass_check sweep
// --resume). Earlier versions are rejected: v3 could also embed the
// frontier of a half-explored scenario, v2 recorded an engine path, and
// v1 carried a duplicate-rf cache counter in every stat record.
//
//===----------------------------------------------------------------------===//

#include "check/Checkpoint.h"

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

/// A cursor over the non-empty lines of a text.
struct LineCursor {
  std::string_view Text;
  size_t Pos = 0;
  size_t LineNo = 0;
  std::string Line; ///< The current line, CR stripped.
  std::string Err;

  explicit LineCursor(std::string_view Text) : Text(Text) {}

  /// Advances to the next non-empty line; false (with Err set) at the end.
  bool next() {
    while (Pos < Text.size()) {
      size_t E = Text.find('\n', Pos);
      std::string_view L = E == std::string_view::npos
                               ? Text.substr(Pos)
                               : Text.substr(Pos, E - Pos);
      Pos = E == std::string_view::npos ? Text.size() : E + 1;
      ++LineNo;
      if (!L.empty() && L.back() == '\r')
        L.remove_suffix(1);
      if (!L.empty()) {
        Line.assign(L);
        return true;
      }
    }
    Err = "unexpected end of checkpoint";
    return false;
  }

  /// Sets Err to "line N: Msg (got: <line>)" and returns false.
  bool fail(const std::string &Msg) {
    Err = "line " + std::to_string(LineNo) + ": " + Msg +
          (Line.empty() ? "" : " (got: " + Line + ")");
    return false;
  }
};

/// Splits one line into a keyword and numeric/string fields.
struct Fields {
  std::istringstream In;
  explicit Fields(const std::string &Line) : In(Line) {}

  bool word(std::string &Out) { return static_cast<bool>(In >> Out); }

  template <typename T> bool num(T &Out) {
    uint64_t V = 0;
    if (!(In >> V))
      return false;
    Out = static_cast<T>(V);
    // Round-trip check: reject values that do not fit the target type.
    return static_cast<uint64_t>(Out) == V;
  }

  /// True when no field is left.
  bool end() {
    std::string Extra;
    return !(In >> Extra);
  }
};

/// Reads the record keyword from \p F; fails \p C unless it is \p Kw.
bool expectKeyword(LineCursor &C, const char *Kw, Fields &F) {
  std::string W;
  if (!F.word(W) || W != Kw)
    return C.fail(std::string("expected '") + Kw + "'");
  return true;
}

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
      !decodeToken(Enc, St.FirstBad) || !F.end())
    return C.fail("malformed stat record");
  return true;
}

void writeAhead(std::ostringstream &OS, const FinishedScenario &F) {
  const LibSweepStats &St = F.Stats;
  OS << "ahead " << F.Index << ' ' << St.Executions << ' ' << St.Completed
     << ' ' << St.Races << ' ' << St.Deadlocks << ' ' << St.Violations << ' '
     << St.SleepPruned << ' ' << St.RfPruned << ' ' << St.SourcePruned << ' '
     << St.MaxDepth << ' ' << St.LinAborts << ' ' << St.Truncated << ' '
     << F.FirstViolation.size();
  for (unsigned D : F.FirstViolation)
    OS << ' ' << D;
  OS << '\n';
}

/// Parses one ahead record of \p K whose index must be at least \p Min
/// (past the position and the record before) and inside the sweep.
bool parseAhead(LineCursor &C, const SweepCheckpoint &K, size_t Min,
                FinishedScenario &F) {
  if (!C.next())
    return false;
  Fields Fs(C.Line);
  if (!expectKeyword(C, "ahead", Fs))
    return false;
  LibSweepStats &St = F.Stats;
  uint64_t NDec = 0;
  if (!Fs.num(F.Index) || !Fs.num(St.Executions) || !Fs.num(St.Completed) ||
      !Fs.num(St.Races) || !Fs.num(St.Deadlocks) || !Fs.num(St.Violations) ||
      !Fs.num(St.SleepPruned) || !Fs.num(St.RfPruned) ||
      !Fs.num(St.SourcePruned) || !Fs.num(St.MaxDepth) ||
      !Fs.num(St.LinAborts) || !Fs.num(St.Truncated) || St.Truncated > 1 ||
      !Fs.num(NDec) || NDec > C.Line.size()) // a decision per 2+ chars
    return C.fail("malformed ahead record");
  F.FirstViolation.resize(NDec);
  for (unsigned &D : F.FirstViolation)
    if (!Fs.num(D))
      return C.fail("malformed ahead record");
  if (!Fs.end())
    return C.fail("malformed ahead record");
  if (F.Index < Min)
    return C.fail("ahead record not past the position and the one before");
  if (F.Index >= K.Libs.size() * K.ScenariosPerLib)
    return C.fail("ahead record beyond the sweep");
  St.L = K.Libs[F.Index / K.ScenariosPerLib];
  St.Scenarios = 1;
  return true;
}

} // namespace

std::string check::serializeSweepCheckpoint(const SweepCheckpoint &C) {
  std::ostringstream OS;
  OS << "compass sweep-checkpoint v4\n";
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
     << ' ' << C.DoneLibs.size() << ' ' << C.Ahead.size() << '\n';
  for (const LibSweepStats &St : C.DoneLibs)
    writeStat(OS, St);
  writeStat(OS, C.CurLib);
  for (const FinishedScenario &F : C.Ahead)
    writeAhead(OS, F);
  OS << "end sweep-checkpoint\n";
  return OS.str();
}

bool check::parseSweepCheckpoint(std::string_view Text, SweepCheckpoint &Out,
                                 std::string &Err) {
  Out = SweepCheckpoint{};
  LineCursor C(Text);
  auto Done = [&](bool Ok) {
    if (!Ok)
      Err = C.Err;
    return Ok;
  };

  if (!C.next())
    return Done(false);
  if (C.Line != "compass sweep-checkpoint v4")
    return Done(C.fail("unsupported checkpoint header "
                       "(want 'compass sweep-checkpoint v4')"));

  if (!C.next())
    return Done(false);
  {
    Fields F(C.Line);
    std::string Red;
    if (!expectKeyword(C, "config", F) || !F.num(Out.Seed) ||
        !F.num(Out.ScenariosPerLib) || !F.num(Out.MaxExecutionsPerScenario) ||
        !F.word(Red) || !F.end())
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
        !F.num(Out.Gen.MaxPreemptions) || !F.end())
      return Done(C.fail("malformed gen record"));
  }

  uint64_t NLibs = 0;
  if (!C.next())
    return Done(false);
  {
    Fields F(C.Line);
    if (!expectKeyword(C, "libs", F) || !F.num(NLibs) || NLibs == 0 ||
        !F.end())
      return Done(C.fail("malformed libs record"));
  }
  for (uint64_t I = 0; I != NLibs; ++I) {
    if (!C.next())
      return Done(false);
    Fields F(C.Line);
    std::string Name;
    Lib L;
    if (!expectKeyword(C, "lib", F) || !F.word(Name) || !parseLib(Name, L) ||
        !F.end())
      return Done(C.fail("malformed lib record"));
    Out.Libs.push_back(L);
  }

  uint64_t NDone = 0, NAhead = 0;
  if (!C.next())
    return Done(false);
  {
    Fields F(C.Line);
    if (!expectKeyword(C, "progress", F) || !F.num(Out.Fp) ||
        !F.num(Out.LibIndex) || !F.num(Out.ScenarioIndex) || !F.num(NDone) ||
        !F.num(NAhead) || !F.end())
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
  size_t Min = Out.LibIndex * Out.ScenariosPerLib + Out.ScenarioIndex + 1;
  for (uint64_t I = 0; I != NAhead; ++I) {
    FinishedScenario F;
    if (!parseAhead(C, Out, Min, F))
      return Done(false);
    Min = F.Index + 1;
    Out.Ahead.push_back(std::move(F));
  }

  if (!C.next())
    return Done(false);
  if (C.Line != "end sweep-checkpoint")
    return Done(C.fail("expected 'end sweep-checkpoint'"));
  return true;
}
