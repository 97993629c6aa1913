//===-- tests/EbrTest.cpp - Epoch-based reclamation tests -------------------===//
//
// Unit tests for the EBR domain and the EBR-backed Treiber stack: epochs
// advance when readers quiesce, pinned readers block reclamation, and —
// the property that distinguishes EBR from the deferred retire list —
// memory is actually freed *while the structure is in use*.
//
//===----------------------------------------------------------------------===//

#include "native/Ebr.h"
#include "native/TreiberStackEbr.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <vector>

using namespace compass::native;

namespace {

struct Tracked : RetireHook {
  static std::atomic<int> Live;
  int Payload = 0;
  Tracked() { Live.fetch_add(1, std::memory_order_relaxed); }
  ~Tracked() { Live.fetch_sub(1, std::memory_order_relaxed); }
};
std::atomic<int> Tracked::Live{0};

} // namespace

TEST(EbrTest, RetiredNodesFreeAsEpochsTurn) {
  Tracked::Live.store(0);
  {
    EbrDomain<Tracked> D;
    EbrDomain<Tracked>::Participant P(D);
    // No pinned readers: each retire can advance the epoch, so after a
    // few retires the early ones must be gone.
    for (int I = 0; I != 10; ++I)
      D.retire(new Tracked());
    EXPECT_GT(D.epoch(), 0u);
    EXPECT_GT(D.freedApprox(), 0u);
    EXPECT_LT(Tracked::Live.load(), 10);
  }
  // Destructor frees the rest.
  EXPECT_EQ(Tracked::Live.load(), 0);
}

TEST(EbrTest, PinnedReaderBlocksAdvance) {
  Tracked::Live.store(0);
  EbrDomain<Tracked> D;
  EbrDomain<Tracked>::Participant Writer(D);
  EbrDomain<Tracked>::Participant Reader(D);

  uint64_t E0 = D.epoch();
  {
    EbrDomain<Tracked>::Guard G(Reader);
    // Retire while the reader is pinned at the current epoch: the epoch
    // may advance at most... the reader announced the current epoch, so
    // advance is allowed once, then blocked by the stale announcement.
    for (int I = 0; I != 8; ++I)
      D.retire(new Tracked());
    EXPECT_LE(D.epoch(), E0 + 1)
        << "a pinned reader must block repeated epoch advances";
    EXPECT_GE(Tracked::Live.load(), 6)
        << "nodes must not be freed from under a pinned reader";
  }
  // Reader unpinned: retiring now turns epochs freely.
  for (int I = 0; I != 8; ++I)
    D.retire(new Tracked());
  EXPECT_GT(D.freedApprox(), 0u);
}

TEST(EbrTest, ParticipantSlotsRecycle) {
  EbrDomain<Tracked> D;
  for (int Round = 0; Round != 3; ++Round) {
    std::vector<std::unique_ptr<EbrDomain<Tracked>::Participant>> Ps;
    for (unsigned I = 0; I != EbrDomain<Tracked>::MaxParticipants; ++I)
      Ps.push_back(
          std::make_unique<EbrDomain<Tracked>::Participant>(D));
    // All slots used; destroying them releases for the next round.
  }
  SUCCEED();
}

namespace {

/// Shadow announcement table for the grace-period property tests: mirrors
/// which participants are pinned and at which announced epoch. Updated by
/// the (single-threaded) test around Guard lifetimes, read by Probe
/// destructors at the moment the domain frees a node.
struct ShadowSlots {
  std::vector<std::optional<uint64_t>> Announced;
  explicit ShadowSlots(unsigned N) : Announced(N) {}
  bool anyAnnouncedAtOrBelow(uint64_t Epoch) const {
    for (const auto &A : Announced)
      if (A && *A <= Epoch)
        return true;
    return false;
  }
};

ShadowSlots *ActiveShadow = nullptr;

/// A retired node that checks the grace-period invariant in its
/// destructor: when the domain frees it, no participant may still be
/// pinned with an announced epoch <= the node's retire epoch — such a
/// participant could have snapshotted the node before it was unlinked.
struct Probe : RetireHook {
  uint64_t RetireEpoch = 0;
  bool Armed = false;
  ~Probe() {
    if (Armed && ActiveShadow) {
      EXPECT_FALSE(ActiveShadow->anyAnnouncedAtOrBelow(RetireEpoch))
          << "node retired at epoch " << RetireEpoch
          << " freed while a reader is still pinned at or before it";
    }
  }
};

} // namespace

TEST(EbrTest, GracePeriodInvariantRandomized) {
  // Property test: drive one domain through a long random schedule of
  // pin/unpin/retire across several participants (single real thread, so
  // the shadow table is exact) and let every freed node assert the
  // grace-period invariant from its destructor.
  constexpr unsigned NumParts = 4;
  ShadowSlots Shadow(NumParts);
  ActiveShadow = &Shadow;
  {
    EbrDomain<Probe> D;
    std::vector<std::unique_ptr<EbrDomain<Probe>::Participant>> Parts;
    for (unsigned I = 0; I != NumParts; ++I)
      Parts.push_back(std::make_unique<EbrDomain<Probe>::Participant>(D));
    std::vector<std::unique_ptr<EbrDomain<Probe>::Guard>> Guards(NumParts);

    std::mt19937_64 Rng(0xEB12);
    for (unsigned Step = 0; Step != 20000; ++Step) {
      unsigned P = Rng() % NumParts;
      switch (Rng() % 3) {
      case 0: // Pin (if unpinned).
        if (!Guards[P]) {
          Guards[P] =
              std::make_unique<EbrDomain<Probe>::Guard>(*Parts[P]);
          // Guard announced the epoch it read; no advance can have
          // interleaved (single thread), so D.epoch() is that epoch.
          Shadow.Announced[P] = D.epoch();
        }
        break;
      case 1: // Unpin.
        if (Guards[P]) {
          Guards[P].reset();
          Shadow.Announced[P] = std::nullopt;
        }
        break;
      case 2: { // Retire; may advance the epoch and free (runs Probe
                // destructors, which check the shadow).
        auto *N = new Probe();
        N->RetireEpoch = D.epoch();
        N->Armed = true;
        D.retire(N);
        break;
      }
      }
    }
    Guards.clear();
    for (auto &A : Shadow.Announced)
      A = std::nullopt;
    // Domain destructor frees the stragglers (all readers unpinned by
    // now, so the invariant holds trivially).
  }
  ActiveShadow = nullptr;
}

TEST(EbrTest, AdvanceRequiresEveryAnnouncementCurrent) {
  // Directed version of the invariant: two readers pinned at epoch E0;
  // retires advance at most once (to E0+1), and the bin holding the
  // E0-retired nodes cannot be freed until *both* readers unpin.
  Tracked::Live.store(0);
  EbrDomain<Tracked> D;
  EbrDomain<Tracked>::Participant A(D);
  EbrDomain<Tracked>::Participant B(D);

  auto GA = std::make_unique<EbrDomain<Tracked>::Guard>(A);
  auto GB = std::make_unique<EbrDomain<Tracked>::Guard>(B);
  uint64_t E0 = D.epoch();
  for (int I = 0; I != 6; ++I)
    D.retire(new Tracked());
  EXPECT_LE(D.epoch(), E0 + 1);
  EXPECT_EQ(Tracked::Live.load(), 6);

  // One reader unpinning is not enough: the other still announces E0.
  GA.reset();
  for (int I = 0; I != 6; ++I)
    D.retire(new Tracked());
  EXPECT_LE(D.epoch(), E0 + 1);
  EXPECT_EQ(Tracked::Live.load(), 12);

  // Both unpinned: epochs turn freely and the early nodes are freed.
  GB.reset();
  for (int I = 0; I != 8; ++I)
    D.retire(new Tracked());
  EXPECT_GT(D.epoch(), E0 + 1);
  EXPECT_GT(D.freedApprox(), 0u);
  EXPECT_LT(Tracked::Live.load(), 20);
}

TEST(RetireListTest, DefersEverythingUntilDrain) {
  // The baseline scheme sim/Ebr.h improves on: nothing is freed before
  // drain(), everything after, and size() counts the pending nodes.
  Tracked::Live.store(0);
  RetireList<Tracked> L;
  for (int I = 0; I != 32; ++I)
    L.retire(new Tracked());
  EXPECT_EQ(L.size(), 32u);
  EXPECT_EQ(Tracked::Live.load(), 32);
  L.drain();
  EXPECT_EQ(L.size(), 0u);
  EXPECT_EQ(Tracked::Live.load(), 0);
}

TEST(RetireListTest, ConcurrentRetireIsLossless) {
  // Many threads retiring concurrently (the lock-free CAS push); a drain
  // at the join point must account for every node exactly once.
  Tracked::Live.store(0);
  RetireList<Tracked> L;
  constexpr unsigned Threads = 4;
  constexpr int PerThread = 5000;
  std::vector<std::thread> Workers;
  for (unsigned W = 0; W != Threads; ++W)
    Workers.emplace_back([&L] {
      for (int I = 0; I != PerThread; ++I)
        L.retire(new Tracked());
    });
  for (auto &T : Workers)
    T.join();
  EXPECT_EQ(L.size(), size_t(Threads) * PerThread);
  EXPECT_EQ(Tracked::Live.load(), int(Threads) * PerThread);
  L.drain();
  EXPECT_EQ(Tracked::Live.load(), 0);
}

TEST(EbrTreiberTest, LifoSingleThread) {
  TreiberStackEbr<uint64_t> S;
  auto H = S.registerThread();
  for (uint64_t I = 1; I <= 4; ++I)
    S.push(H, I);
  for (uint64_t I = 4; I >= 1; --I) {
    auto V = S.pop(H);
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, I);
  }
  EXPECT_FALSE(S.pop(H).has_value());
}

TEST(EbrTreiberTest, FreesMemoryOnline) {
  TreiberStackEbr<uint64_t> S;
  auto H = S.registerThread();
  for (uint64_t I = 0; I != 1000; ++I) {
    S.push(H, I);
    S.pop(H);
  }
  // The deferred-retire TreiberStack would have 1000 nodes pending here;
  // EBR must have freed the bulk while running.
  EXPECT_GT(S.nodesFreedOnline(), 900u);
  EXPECT_LT(S.nodesPending(), 100u);
  EXPECT_GT(S.epochsTurned(), 100u);
}

TEST(EbrTreiberTest, ConservationUnderContention) {
  TreiberStackEbr<uint64_t> S;
  constexpr unsigned Threads = 4;
  constexpr uint64_t PerThread = 2000;
  std::vector<std::vector<uint64_t>> Got(Threads);

  std::vector<std::thread> Workers;
  for (unsigned W = 0; W != Threads; ++W)
    Workers.emplace_back([&, W] {
      auto H = S.registerThread();
      for (uint64_t I = 1; I <= PerThread; ++I) {
        S.push(H, uint64_t(W) * PerThread + I);
        if (auto V = S.pop(H))
          Got[W].push_back(*V);
      }
    });
  for (auto &T : Workers)
    T.join();

  auto H = S.registerThread();
  while (auto V = S.pop(H))
    Got[0].push_back(*V);

  std::map<uint64_t, int> Seen;
  for (auto &Vs : Got)
    for (uint64_t V : Vs)
      ++Seen[V];
  EXPECT_EQ(Seen.size(), uint64_t(Threads) * PerThread);
  for (auto &[V, N] : Seen)
    EXPECT_EQ(N, 1) << V;
  EXPECT_GT(S.nodesFreedOnline(), 0u);
}

TEST(EbrTreiberTest, PopHeavyReclamationStress) {
  // Dedicated pushers racing dedicated poppers: every pop dereferences a
  // node another thread may be retiring at that instant, so this is the
  // path where a grace-period bug shows up as a use-after-free — run it
  // under TSan/ASan (the CI tsan job includes this suite) to make the
  // reclamation window visible to the sanitizer.
  TreiberStackEbr<uint64_t> S;
  constexpr unsigned Pushers = 2, Poppers = 2;
  constexpr uint64_t PerPusher = 4000;
  std::atomic<uint64_t> Popped{0};
  std::atomic<bool> Done{false};

  std::vector<std::thread> Workers;
  for (unsigned W = 0; W != Pushers; ++W)
    Workers.emplace_back([&, W] {
      auto H = S.registerThread();
      for (uint64_t I = 1; I <= PerPusher; ++I)
        S.push(H, uint64_t(W) * PerPusher + I);
    });
  for (unsigned W = 0; W != Poppers; ++W)
    Workers.emplace_back([&] {
      auto H = S.registerThread();
      while (!Done.load(std::memory_order_acquire)) {
        if (auto V = S.pop(H)) {
          EXPECT_NE(*V, 0u);
          Popped.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  for (unsigned W = 0; W != Pushers; ++W)
    Workers[W].join();
  Done.store(true, std::memory_order_release);
  for (unsigned W = Pushers; W != Workers.size(); ++W)
    Workers[W].join();

  // Drain the remainder and check conservation.
  auto H = S.registerThread();
  uint64_t Rest = 0;
  while (S.pop(H))
    ++Rest;
  EXPECT_EQ(Popped.load() + Rest, uint64_t(Pushers) * PerPusher);
  EXPECT_GT(S.nodesFreedOnline(), 0u)
      << "reclamation must make progress while the stack is contended";
}
