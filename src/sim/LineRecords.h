//===-- sim/LineRecords.h - Line-record text parsing helpers ----*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reading side shared by the two checkpoint grammars: the snapshot
/// format of sim/Checkpoint.cpp and the sweep-checkpoint format of
/// check/Checkpoint.cpp, which embeds it. Both are one record per line, a
/// keyword followed by space-separated fields.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SIM_LINERECORDS_H
#define COMPASS_SIM_LINERECORDS_H

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

namespace compass::sim::detail {

/// A cursor over the non-empty lines of a text.
struct LineCursor {
  std::string_view Text;
  const char *What; ///< Names the document in the end-of-input error.
  size_t Pos = 0;
  size_t LineNo = 0;
  std::string Line; ///< The current line, CR stripped.
  std::string Err;

  LineCursor(std::string_view Text, const char *What)
      : Text(Text), What(What) {}

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
    Err = std::string("unexpected end of ") + What;
    return false;
  }

  /// Sets Err to "line N: Msg (got: <line>)" and returns false.
  bool fail(const std::string &Msg) {
    Err = "line " + std::to_string(LineNo) + ": " + Msg +
          (Line.empty() ? "" : " (got: " + Line + ")");
    return false;
  }

  /// The text after the current line, for an embedded grammar's parser.
  std::string_view rest() const { return Text.substr(Pos); }
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

  bool flag(bool &Out) {
    unsigned V = 0;
    if (!(In >> V) || V > 1)
      return false;
    Out = V != 0;
    return true;
  }
};

/// Reads the record keyword from \p F; fails \p C unless it is \p Kw.
inline bool expectKeyword(LineCursor &C, const char *Kw, Fields &F) {
  std::string W;
  if (!F.word(W) || W != Kw)
    return C.fail(std::string("expected '") + Kw + "'");
  return true;
}

} // namespace compass::sim::detail

#endif // COMPASS_SIM_LINERECORDS_H
