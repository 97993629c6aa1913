//===-- tests/NativeTest.cpp - Native (std::atomic) container tests --------===//
//
// Functional tests for the real-atomics library: single-threaded
// semantics, multi-threaded stress tests checking conservation (every
// value produced is consumed exactly once) and container discipline, and
// the memory-order tables (lib/Orders.h) the native and simulated twins
// share.
//
//===----------------------------------------------------------------------===//

#include "check/Scenario.h"
#include "lib/MsQueue.h"
#include "lib/Orders.h"
#include "lib/TreiberStack.h"
#include "lib/WsDeque.h"
#include "native/ElimStack.h"
#include "native/Exchanger.h"
#include "native/HwQueue.h"
#include "native/Locked.h"
#include "native/MsQueue.h"
#include "native/RetireList.h"
#include "native/TreiberStack.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <regex>
#include <string>
#include <thread>
#include <vector>

using namespace compass::native;

//===----------------------------------------------------------------------===//
// RetireList
//===----------------------------------------------------------------------===//

namespace {
struct TestNode : RetireHook {
  static std::atomic<int> Live;
  TestNode() { Live.fetch_add(1, std::memory_order_relaxed); }
  ~TestNode() { Live.fetch_sub(1, std::memory_order_relaxed); }
};
std::atomic<int> TestNode::Live{0};
} // namespace

TEST(RetireListTest, DrainFreesEverything) {
  {
    RetireList<TestNode> RL;
    for (int I = 0; I < 10; ++I)
      RL.retire(new TestNode());
    EXPECT_EQ(RL.size(), 10u);
    EXPECT_EQ(TestNode::Live.load(), 10);
    RL.drain();
    EXPECT_EQ(TestNode::Live.load(), 0);
    RL.retire(new TestNode());
  }
  // Destructor drains the rest.
  EXPECT_EQ(TestNode::Live.load(), 0);
}

//===----------------------------------------------------------------------===//
// Single-threaded semantics
//===----------------------------------------------------------------------===//

TEST(NativeMsQueueTest, FifoSingleThread) {
  MsQueue<uint64_t> Q;
  EXPECT_TRUE(Q.empty());
  EXPECT_FALSE(Q.dequeue().has_value());
  for (uint64_t I = 1; I <= 5; ++I)
    Q.enqueue(I);
  EXPECT_FALSE(Q.empty());
  for (uint64_t I = 1; I <= 5; ++I) {
    auto V = Q.dequeue();
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, I);
  }
  EXPECT_FALSE(Q.dequeue().has_value());
}

TEST(NativeTreiberTest, LifoSingleThread) {
  TreiberStack<uint64_t> S;
  EXPECT_TRUE(S.empty());
  EXPECT_FALSE(S.pop().has_value());
  for (uint64_t I = 1; I <= 5; ++I)
    S.push(I);
  for (uint64_t I = 5; I >= 1; --I) {
    auto V = S.pop();
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, I);
  }
  EXPECT_FALSE(S.pop().has_value());
}

TEST(NativeTreiberTest, TryOpsSingleThread) {
  TreiberStack<uint64_t> S;
  EXPECT_TRUE(S.tryPush(7));
  uint64_t Out = 0;
  EXPECT_EQ(S.tryPop(Out), TreiberStack<uint64_t>::TryPopResult::Ok);
  EXPECT_EQ(Out, 7u);
  EXPECT_EQ(S.tryPop(Out), TreiberStack<uint64_t>::TryPopResult::Empty);
}

TEST(NativeHwQueueTest, FifoSingleThread) {
  HwQueue<> Q(16);
  EXPECT_FALSE(Q.dequeue().has_value());
  for (uint64_t I = 1; I <= 5; ++I)
    Q.enqueue(I);
  for (uint64_t I = 1; I <= 5; ++I) {
    auto V = Q.dequeue();
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, I);
  }
  EXPECT_FALSE(Q.dequeue().has_value());
}

TEST(NativeElimStackTest, LifoSingleThread) {
  ElimStack<uint64_t> S;
  for (uint64_t I = 1; I <= 4; ++I)
    S.push(I);
  for (uint64_t I = 4; I >= 1; --I) {
    auto V = S.pop();
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, I);
  }
  EXPECT_FALSE(S.pop().has_value());
}

TEST(NativeExchangerTest, SingleThreadTimesOut) {
  Exchanger<uint64_t> X;
  EXPECT_FALSE(X.exchange(5, /*Attempts=*/2, /*Spins=*/4).has_value());
}

TEST(NativeMutexContainersTest, BasicSemantics) {
  MutexQueue<uint64_t> Q;
  Q.enqueue(1);
  Q.enqueue(2);
  EXPECT_EQ(*Q.dequeue(), 1u);
  EXPECT_EQ(*Q.dequeue(), 2u);
  EXPECT_FALSE(Q.dequeue().has_value());

  MutexStack<uint64_t> S;
  S.push(1);
  S.push(2);
  EXPECT_EQ(*S.pop(), 2u);
  EXPECT_EQ(*S.pop(), 1u);
  EXPECT_FALSE(S.pop().has_value());
}

//===----------------------------------------------------------------------===//
// Multi-threaded conservation stress
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Producers threads enqueueing disjoint value ranges and
/// \p Consumers threads dequeueing until all values are drained; checks
/// every value arrives exactly once.
template <typename EnqFn, typename DeqFn>
void conservationStress(unsigned Producers, unsigned Consumers,
                        unsigned PerProducer, EnqFn Enq, DeqFn Deq) {
  std::atomic<uint64_t> Consumed{0};
  uint64_t Total = uint64_t(Producers) * PerProducer;
  std::vector<std::vector<uint64_t>> Got(Consumers);

  std::vector<std::thread> Threads;
  for (unsigned P = 0; P != Producers; ++P)
    Threads.emplace_back([&, P] {
      for (unsigned I = 0; I != PerProducer; ++I)
        Enq(uint64_t(P) * PerProducer + I + 1);
    });
  for (unsigned C = 0; C != Consumers; ++C)
    Threads.emplace_back([&, C] {
      while (Consumed.load(std::memory_order_relaxed) < Total) {
        std::optional<uint64_t> V = Deq();
        if (!V) {
          std::this_thread::yield();
          continue;
        }
        Got[C].push_back(*V);
        Consumed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (auto &T : Threads)
    T.join();

  std::map<uint64_t, int> Count;
  for (auto &Vs : Got)
    for (uint64_t V : Vs)
      ++Count[V];
  EXPECT_EQ(Count.size(), Total) << "values lost";
  for (auto &[V, N] : Count)
    EXPECT_EQ(N, 1) << "value " << V << " duplicated";
}

} // namespace

TEST(NativeMsQueueTest, ConservationUnderContention) {
  MsQueue<uint64_t> Q;
  conservationStress(
      2, 2, 2000, [&](uint64_t V) { Q.enqueue(V); },
      [&] { return Q.dequeue(); });
}

TEST(NativeTreiberTest, ConservationUnderContention) {
  TreiberStack<uint64_t> S;
  conservationStress(
      2, 2, 2000, [&](uint64_t V) { S.push(V); },
      [&] { return S.pop(); });
}

TEST(NativeHwQueueTest, ConservationUnderContention) {
  HwQueue<> Q(4 * 1500);
  conservationStress(
      4, 2, 1500, [&](uint64_t V) { Q.enqueue(V); },
      [&] { return Q.dequeue(); });
}

TEST(NativeElimStackTest, ConservationUnderContention) {
  ElimStack<uint64_t> S;
  conservationStress(
      2, 2, 2000, [&](uint64_t V) { S.push(V); },
      [&] { return S.pop(); });
}

TEST(NativeMutexContainersTest, ConservationUnderContention) {
  MutexQueue<uint64_t> Q;
  conservationStress(
      2, 2, 2000, [&](uint64_t V) { Q.enqueue(V); },
      [&] { return Q.dequeue(); });
}

TEST(NativeMsQueueTest, SingleProducerOrderPreserved) {
  // FIFO end-to-end for one producer / one consumer (the native analog of
  // the SPSC client).
  MsQueue<uint64_t> Q;
  constexpr uint64_t N = 5000;
  std::vector<uint64_t> Seen;
  std::thread Producer([&] {
    for (uint64_t I = 1; I <= N; ++I)
      Q.enqueue(I);
  });
  std::thread Consumer([&] {
    while (Seen.size() < N) {
      auto V = Q.dequeue();
      if (V)
        Seen.push_back(*V);
    }
  });
  Producer.join();
  Consumer.join();
  ASSERT_EQ(Seen.size(), N);
  EXPECT_TRUE(std::is_sorted(Seen.begin(), Seen.end()));
  EXPECT_EQ(Seen.front(), 1u);
  EXPECT_EQ(Seen.back(), N);
}

TEST(NativeExchangerTest, PairedThreadsCrossValues) {
  Exchanger<uint64_t> X;
  std::optional<uint64_t> Got[2];
  // Generous attempt budget: with two willing partners a match is
  // essentially certain, but the API remains best-effort.
  auto Runner = [&](int Idx, uint64_t Mine) {
    for (int I = 0; I < 10000 && !Got[Idx]; ++I)
      Got[Idx] = X.exchange(Mine, 4, 128);
  };
  std::thread T0(Runner, 0, 111u);
  std::thread T1(Runner, 1, 222u);
  T0.join();
  T1.join();
  if (Got[0] && Got[1]) {
    EXPECT_EQ(*Got[0], 222u);
    EXPECT_EQ(*Got[1], 111u);
  } else {
    // Both must agree: a one-sided exchange would be a bug.
    EXPECT_FALSE(Got[0].has_value());
    EXPECT_FALSE(Got[1].has_value());
  }
}

TEST(NativeExchangerTest, StressMatchesArePairwise) {
  // Every completed exchange pairs two offers: if the exchange offering A
  // got B, the exchange offering B got A. Four threads with short waits
  // keep offers being matched, withdrawn and replaced in the slot, so an
  // exchange that clears the slot after it already holds a newer offer and
  // then reads that node hands back a third thread's value.
  constexpr unsigned Threads = 4, PerThread = 20000;
  Exchanger<uint64_t> X;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Done(Threads);
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != Threads; ++T)
    Ts.emplace_back([&, T] {
      for (unsigned I = 0; I != PerThread; ++I) {
        uint64_t Mine = uint64_t(T) * PerThread + I + 1;
        if (std::optional<uint64_t> Got = X.exchange(Mine, 1, 16))
          Done[T].push_back({Mine, *Got});
      }
    });
  for (auto &T : Ts)
    T.join();

  std::map<uint64_t, uint64_t> Partner;
  for (auto &Pairs : Done)
    for (auto [Mine, Got] : Pairs)
      Partner.emplace(Mine, Got);
  for (auto [Mine, Got] : Partner) {
    auto It = Partner.find(Got);
    ASSERT_NE(It, Partner.end())
        << Mine << " got " << Got << ", whose exchange did not complete";
    EXPECT_EQ(It->second, Mine)
        << Mine << " got " << Got << ", which got " << It->second;
  }
}

//===----------------------------------------------------------------------===//
// Order tables: one source for the native and simulated twins
//===----------------------------------------------------------------------===//

namespace {

using compass::lib::MemOrder;
using compass::lib::stdOrder;
using compass::lib::Mutation;

static_assert(stdOrder(MemOrder::Relaxed) == std::memory_order_relaxed);
static_assert(stdOrder(MemOrder::Acquire) == std::memory_order_acquire);
static_assert(stdOrder(MemOrder::Release) == std::memory_order_release);
static_assert(stdOrder(MemOrder::AcqRel) == std::memory_order_acq_rel);
static_assert(stdOrder(MemOrder::SeqCst) == std::memory_order_seq_cst);

/// Expects \p Got to be the pristine table with exactly \p Fields relaxed
/// when \p Relaxes holds, and the pristine table otherwise.
template <typename Table>
void expectRelaxes(const Table &Got,
                   std::initializer_list<MemOrder Table::*> Fields,
                   bool Relaxes = true) {
  const Table Pristine{};
  Table Want = Pristine;
  for (MemOrder Table::*F : Fields) {
    EXPECT_NE(Pristine.*F, MemOrder::Relaxed) << "field is already relaxed";
    if (Relaxes)
      Want.*F = MemOrder::Relaxed;
  }
  EXPECT_TRUE(Got == Want);
}

} // namespace

TEST(OrderTableTest, OrderMutantsRelaxOnlyTheirField) {
  namespace lib = compass::lib;
  for (unsigned I = 0; I != compass::check::NumMutations; ++I) {
    auto M = static_cast<Mutation>(I);
    SCOPED_TRACE(compass::check::mutationName(M));
    expectRelaxes(lib::MsQueue::orders(lib::MsQueue::SyncProfile::RelAcq, M),
                  {&lib::MsQueueOrders::LinkCas},
                  M == Mutation::MsQueueRelaxedPublish);
    expectRelaxes(lib::TreiberStack::orders(M),
                  {&lib::TreiberOrders::PopHeadLoad},
                  M == Mutation::TreiberRelaxedPopHead);
    expectRelaxes(lib::WsDeque::orders(M), {&lib::WsDequeOrders::TakeFence},
                  M == Mutation::WsDequeTakeNoFence);
  }
}

TEST(OrderTableTest, MsQueueProfilesRelaxEveryAccess) {
  using Profile = compass::lib::MsQueue::SyncProfile;
  using O = compass::lib::MsQueueOrders;
  for (Profile P : {Profile::Fenced, Profile::BrokenRelaxed})
    expectRelaxes(compass::lib::MsQueue::orders(P, Mutation::None),
                  {&O::TailLoad, &O::NextLoad, &O::TailCas, &O::LinkCas,
                   &O::HeadLoad, &O::HeadCas});
}

TEST(OrderTableTest, NativeAlgorithmsSpellNoSynchronizingOrder) {
  // Every synchronizing access of the six native twins reads its table
  // through lib::stdOrder; only native-only relaxed accesses
  // (constructors, destructors, relaxed CAS failure orders) may be spelled
  // out.
  const std::regex Literal(
      "memory_order(_|::)(acquire|release|acq_rel|seq_cst|consume)");
  for (const char *Name : {"MsQueue.h", "HwQueue.h", "TreiberStack.h",
                           "TreiberStackEbr.h", "Exchanger.h", "WsDeque.h"}) {
    std::string Path = std::string(COMPASS_NATIVE_DIR) + "/" + Name;
    std::ifstream In(Path);
    ASSERT_TRUE(In) << "cannot read " << Path;
    bool ReadsTable = false;
    std::string Line;
    for (unsigned No = 1; std::getline(In, Line); ++No) {
      EXPECT_FALSE(std::regex_search(Line, Literal))
          << Path << ":" << No << ": " << Line;
      ReadsTable |= Line.find("lib::stdOrder(Ord.") != std::string::npos;
    }
    EXPECT_TRUE(ReadsTable) << Path << " reads no order table";
  }
}
