//===-- tests/SupportTest.cpp - Unit tests for support utilities -----------===//

#include "support/Choice.h"
#include "support/IdSet.h"
#include "support/Json.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <vector>

using namespace compass;

TEST(RngTest, DeterministicGivenSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(RngTest, BelowRespectsBound) {
  Rng R(7);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 10ull, 1000ull})
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(R.below(Bound), Bound);
}

TEST(RngTest, RangeInclusive) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 300; ++I) {
    uint64_t V = R.range(5, 7);
    EXPECT_GE(V, 5u);
    EXPECT_LE(V, 7u);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 3u); // All three values hit.
}

TEST(RngTest, SplitMixAdvancesState) {
  uint64_t S = 0;
  uint64_t A = splitMix64(S);
  uint64_t B = splitMix64(S);
  EXPECT_NE(A, B);
}

TEST(IdSetTest, InsertContainsErase) {
  IdSet S;
  EXPECT_TRUE(S.empty());
  EXPECT_FALSE(S.contains(0));
  S.insert(0);
  S.insert(63);
  S.insert(64);
  S.insert(1000);
  EXPECT_TRUE(S.contains(0));
  EXPECT_TRUE(S.contains(63));
  EXPECT_TRUE(S.contains(64));
  EXPECT_TRUE(S.contains(1000));
  EXPECT_FALSE(S.contains(65));
  EXPECT_EQ(S.count(), 4u);
  S.erase(64);
  EXPECT_FALSE(S.contains(64));
  EXPECT_EQ(S.count(), 3u);
}

TEST(IdSetTest, JoinIsUnion) {
  IdSet A, B;
  A.insert(1);
  A.insert(100);
  B.insert(2);
  B.insert(100);
  A.joinWith(B);
  EXPECT_TRUE(A.contains(1));
  EXPECT_TRUE(A.contains(2));
  EXPECT_TRUE(A.contains(100));
  EXPECT_EQ(A.count(), 3u);
}

TEST(IdSetTest, SubsetOrder) {
  IdSet A, B;
  A.insert(3);
  B.insert(3);
  B.insert(700);
  EXPECT_TRUE(A.subsetOf(B));
  EXPECT_FALSE(B.subsetOf(A));
  EXPECT_TRUE(A.subsetOf(A));
  IdSet Empty;
  EXPECT_TRUE(Empty.subsetOf(A));
}

TEST(IdSetTest, EqualityIgnoresTrailingZeros) {
  IdSet A, B;
  A.insert(5);
  B.insert(5);
  B.insert(500);
  B.erase(500); // Leaves zero words behind.
  EXPECT_TRUE(A == B);
}

TEST(IdSetTest, ForEachAscending) {
  IdSet S;
  S.insert(9);
  S.insert(2);
  S.insert(200);
  std::vector<uint32_t> Got = S.toVector();
  ASSERT_EQ(Got.size(), 3u);
  EXPECT_EQ(Got[0], 2u);
  EXPECT_EQ(Got[1], 9u);
  EXPECT_EQ(Got[2], 200u);
}

TEST(ChoiceTest, FirstChoicePicksZero) {
  FirstChoice C;
  EXPECT_EQ(C.choose(1, 1, ChoiceKind::Load), 0u);
  EXPECT_EQ(C.choose(5, 5, ChoiceKind::Sched), 0u);
  EXPECT_EQ(C.choose(5, 2, ChoiceKind::Cas), 0u);
}

TEST(ChoiceTest, KindNamesRoundTripAndSortLikeTheEnum) {
  std::string Prev;
  for (size_t I = 0; I != NumChoiceKinds; ++I) {
    const ChoiceKind K = static_cast<ChoiceKind>(I);
    const std::string Name = choiceKindName(K);
    ChoiceKind Back = ChoiceKind::Cas;
    ASSERT_TRUE(parseChoiceKind(Name, Back)) << Name;
    EXPECT_EQ(Back, K) << Name;
    // Declaration order is name order, so per-kind listings stay sorted.
    EXPECT_LT(Prev, Name);
    Prev = Name;
  }
  ChoiceKind K = ChoiceKind::Load;
  for (const char *Bad : {"", "-", "t", "rf", "Sched", "sched ", "loadwhere"})
    EXPECT_FALSE(parseChoiceKind(Bad, K)) << Bad;
  EXPECT_EQ(K, ChoiceKind::Load) << "a failed parse must not write";
}

//===----------------------------------------------------------------------===//
// JsonWriter string escaping and double round-trips. The control-byte case
// pins the unsigned-char promotion in the \u escape path (a sign-extending
// implementation prints eight hex digits for bytes >= 0x80), and the double
// cases pin shortest-round-trip formatting (the old %.6g truncated epoch
// timestamps to "1.786e+09" in telemetry records).
//===----------------------------------------------------------------------===//

namespace {

std::string jsonString(std::string_view S) {
  JsonWriter J;
  J.value(S);
  return J.str();
}

std::string jsonDouble(double V) {
  JsonWriter J;
  J.value(V);
  return J.str();
}

} // namespace

TEST(JsonTest, EscapesControlBytesAsFourHexDigits) {
  EXPECT_EQ(jsonString(std::string_view("\x01", 1)), "\"\\u0001\"");
  EXPECT_EQ(jsonString(std::string_view("\x1f", 1)), "\"\\u001f\"");
  EXPECT_EQ(jsonString(std::string_view("\x00", 1)), "\"\\u0000\"");
  // A control byte embedded in text must not disturb its neighbours.
  EXPECT_EQ(jsonString(std::string_view("a\x02z", 3)), "\"a\\u0002z\"");
}

TEST(JsonTest, EscapesShorthandAndQuoting) {
  EXPECT_EQ(jsonString("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(jsonString("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(jsonString("cr\rhere"), "\"cr\\rhere\"");
  EXPECT_EQ(jsonString("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(jsonString("back\\slash"), "\"back\\\\slash\"");
}

TEST(JsonTest, HighBytesPassThroughVerbatim) {
  // Multi-byte UTF-8 sequences (all bytes >= 0x80) must be copied as-is,
  // never routed through the \u escape path where sign extension would
  // corrupt them.
  const std::string Utf8 = "caf\xc3\xa9 \xe2\x88\x80x";
  EXPECT_EQ(jsonString(Utf8), "\"" + Utf8 + "\"");
  const std::string Single = "\x80\xff";
  EXPECT_EQ(jsonString(Single), "\"" + Single + "\"");
}

TEST(JsonTest, DoublesRoundTrip) {
  // Shortest-form values stay short.
  EXPECT_EQ(jsonDouble(0.0), "0");
  EXPECT_EQ(jsonDouble(1.5), "1.5");
  EXPECT_EQ(jsonDouble(-2.25), "-2.25");
  // Values that %.6g would truncate must parse back exactly.
  for (double V : {1754500000.123456, 0.1, 1.0 / 3.0, 1e-300, 123456789.0,
                   9007199254740993.0 /* 2^53 + 1, rounds to 2^53 */}) {
    std::string S = jsonDouble(V);
    EXPECT_EQ(std::strtod(S.c_str(), nullptr), V) << S;
  }
}

TEST(JsonTest, NonFiniteBecomesNull) {
  EXPECT_EQ(jsonDouble(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(jsonDouble(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(jsonDouble(std::numeric_limits<double>::quiet_NaN()), "null");
}
