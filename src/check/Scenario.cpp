//===-- check/Scenario.cpp - Generated concurrent scenarios ----------------===//

#include "check/Scenario.h"

#include <cstdlib>
#include <sstream>

using namespace compass;
using namespace compass::check;

const Lib *check::allLibs() {
  static const Lib All[NumLibs] = {
      Lib::MsQueue,   Lib::HwQueue,  Lib::TreiberStack, Lib::ElimStack,
      Lib::Exchanger, Lib::SpscRing, Lib::WsDeque,      Lib::TreiberEbr};
  return All;
}

const char *check::libName(Lib L) {
  switch (L) {
  case Lib::MsQueue:
    return "ms_queue";
  case Lib::HwQueue:
    return "hw_queue";
  case Lib::TreiberStack:
    return "treiber_stack";
  case Lib::ElimStack:
    return "elim_stack";
  case Lib::Exchanger:
    return "exchanger";
  case Lib::SpscRing:
    return "spsc_ring";
  case Lib::WsDeque:
    return "ws_deque";
  case Lib::TreiberEbr:
    return "treiber_ebr";
  }
  return "?";
}

bool check::parseLib(const std::string &Name, Lib &Out) {
  for (unsigned I = 0; I != NumLibs; ++I)
    if (Name == libName(allLibs()[I])) {
      Out = allLibs()[I];
      return true;
    }
  return false;
}

lib::ContainerFamily check::libFamily(Lib L) {
  switch (L) {
  case Lib::MsQueue:
  case Lib::HwQueue:
    return lib::ContainerFamily::Queue;
  case Lib::TreiberStack:
  case Lib::ElimStack:
  case Lib::TreiberEbr:
    return lib::ContainerFamily::Stack;
  case Lib::Exchanger:
    return lib::ContainerFamily::Exchanger;
  case Lib::SpscRing:
    return lib::ContainerFamily::SpscRing;
  case Lib::WsDeque:
    return lib::ContainerFamily::WsDeque;
  }
  return lib::ContainerFamily::Queue;
}

SpecStrength check::libStrength(Lib L) {
  // The relaxed HW queue satisfies LAT_hb but not the linearizable-history
  // spec (paper §3.2, EXPERIMENTS.md E2): with cross-thread enqueues a
  // dequeuer can skip a stale slot and report empty where no total order
  // ⊇ lhb allows it. First seen live at seed 1, scenario #5 of the
  // 500-scenarios-per-library sweep (tests/ConformanceTest.cpp pins it).
  return L == Lib::HwQueue ? SpecStrength::HbOnly : SpecStrength::Linearizable;
}

const char *check::opCodeName(OpCode C) {
  switch (C) {
  case OpCode::Enq:
    return "enq";
  case OpCode::Deq:
    return "deq";
  case OpCode::Push:
    return "push";
  case OpCode::Pop:
    return "pop";
  case OpCode::Exchange:
    return "xchg";
  case OpCode::Take:
    return "take";
  case OpCode::Steal:
    return "steal";
  }
  return "?";
}

namespace {

bool parseOpCode(const std::string &Name, OpCode &Out) {
  static const OpCode All[] = {OpCode::Enq,  OpCode::Deq,      OpCode::Push,
                               OpCode::Pop,  OpCode::Exchange, OpCode::Take,
                               OpCode::Steal};
  for (OpCode C : All)
    if (Name == opCodeName(C)) {
      Out = C;
      return true;
    }
  return false;
}

/// True for op codes that carry a payload argument.
bool hasArg(OpCode C) {
  return C == OpCode::Enq || C == OpCode::Push || C == OpCode::Exchange;
}

} // namespace

std::string Scenario::str() const {
  std::ostringstream OS;
  OS << libName(L) << " pb=" << PreemptionBound;
  if (Capacity)
    OS << " cap=" << Capacity;
  for (size_t T = 0; T != Threads.size(); ++T) {
    OS << " T" << T << '[';
    for (size_t I = 0; I != Threads[T].size(); ++I) {
      if (I)
        OS << ',';
      OS << opCodeName(Threads[T][I].Code);
      if (hasArg(Threads[T][I].Code))
        OS << ':' << Threads[T][I].Arg;
    }
    OS << ']';
  }
  return OS.str();
}

const char *check::mutationName(Mutation M) {
  switch (M) {
  case Mutation::None:
    return "none";
  case Mutation::MsQueueRelaxedPublish:
    return "ms_queue_relaxed_publish";
  case Mutation::MsQueueSkipDeq:
    return "ms_queue_skip_deq";
  case Mutation::TreiberRelaxedPopHead:
    return "treiber_relaxed_pop_head";
  case Mutation::TreiberPopBelowTop:
    return "treiber_pop_below_top";
  case Mutation::ExchangerEchoValue:
    return "exchanger_echo_value";
  case Mutation::SpscRelaxedTailPublish:
    return "spsc_relaxed_tail_publish";
  case Mutation::WsDequeTakeNoFence:
    return "ws_deque_take_no_fence";
  case Mutation::EbrSkipGracePeriod:
    return "ebr_skip_grace_period";
  case Mutation::EbrEarlyUnpin:
    return "ebr_early_unpin";
  }
  return "?";
}

bool check::parseMutation(const std::string &Name, Mutation &Out) {
  for (unsigned I = 0; I != NumMutations; ++I) {
    Mutation M = static_cast<Mutation>(I);
    if (Name == mutationName(M)) {
      Out = M;
      return true;
    }
  }
  return false;
}

Lib check::mutationLib(Mutation M) {
  switch (M) {
  case Mutation::None:
  case Mutation::MsQueueRelaxedPublish:
  case Mutation::MsQueueSkipDeq:
    return Lib::MsQueue;
  case Mutation::TreiberRelaxedPopHead:
  case Mutation::TreiberPopBelowTop:
    return Lib::TreiberStack;
  case Mutation::ExchangerEchoValue:
    return Lib::Exchanger;
  case Mutation::SpscRelaxedTailPublish:
    return Lib::SpscRing;
  case Mutation::WsDequeTakeNoFence:
    return Lib::WsDeque;
  case Mutation::EbrSkipGracePeriod:
  case Mutation::EbrEarlyUnpin:
    return Lib::TreiberEbr;
  }
  return Lib::MsQueue;
}

const char *check::mutationDescription(Mutation M) {
  switch (M) {
  case Mutation::None:
    return "pristine implementation";
  case Mutation::MsQueueRelaxedPublish:
    return "enqueue links the node with a relaxed CAS instead of release; "
           "the dequeuer's non-atomic payload read races";
  case Mutation::MsQueueSkipDeq:
    return "dequeue advances head past two nodes when it can, returning "
           "the second value and skipping the first (FIFO violation)";
  case Mutation::TreiberRelaxedPopHead:
    return "pop reads head relaxed instead of acquire; the non-atomic "
           "node reads race with the pusher's initialization";
  case Mutation::TreiberPopBelowTop:
    return "pop unlinks and returns the element below the top when the "
           "stack has two or more (LIFO violation)";
  case Mutation::ExchangerEchoValue:
    return "exchange returns the caller's own value instead of the "
           "partner's (the event graph stays consistent; only observed "
           "results betray it)";
  case Mutation::SpscRelaxedTailPublish:
    return "producer publishes tail with a relaxed store instead of "
           "release; the consumer's non-atomic slot read races";
  case Mutation::WsDequeTakeNoFence:
    return "take omits the seq-cst fence between the bottom decrement and "
           "the top read; a stale top lets the owner duplicate an element "
           "a thief already stole";
  case Mutation::EbrSkipGracePeriod:
    return "the epoch advance skips the announcement scan, freeing retired "
           "nodes while readers are still pinned (premature free)";
  case Mutation::EbrEarlyUnpin:
    return "pop leaves the pinned critical section right after reading "
           "head, so the node it dereferences can be reclaimed under it "
           "(use after retire)";
  }
  return "?";
}

// === Corpus (de)serialization ============================================

std::string check::formatCorpusEntry(const CorpusEntry &E) {
  std::ostringstream OS;
  if (!E.Note.empty())
    OS << "# " << E.Note << '\n';
  OS << "lib=" << libName(E.S.L) << '\n';
  OS << "mut=" << mutationName(E.Mut) << '\n';
  OS << "seed=" << E.S.Seed << '\n';
  OS << "pb=" << E.S.PreemptionBound << '\n';
  OS << "cap=" << E.S.Capacity << '\n';
  for (const auto &T : E.S.Threads) {
    OS << "thread=";
    for (size_t I = 0; I != T.size(); ++I) {
      if (I)
        OS << ',';
      OS << opCodeName(T[I].Code);
      if (hasArg(T[I].Code))
        OS << ':' << T[I].Arg;
    }
    OS << '\n';
  }
  OS << "decisions=";
  for (size_t I = 0; I != E.Decisions.size(); ++I) {
    if (I)
      OS << ',';
    OS << E.Decisions[I];
  }
  OS << '\n';
  return OS.str();
}

namespace {

/// Splits \p S on \p Sep, dropping empty pieces.
std::vector<std::string> splitOn(const std::string &S, char Sep) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : S) {
    if (C == Sep) {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
  return Out;
}

bool parseU64(const std::string &S, uint64_t &Out) {
  if (S.empty())
    return false;
  char *End = nullptr;
  Out = std::strtoull(S.c_str(), &End, 10);
  return End && *End == '\0';
}

} // namespace

bool check::parseCorpusEntry(const std::string &Text, CorpusEntry &Out,
                             std::string &Err) {
  Out = CorpusEntry();
  bool SawLib = false;
  std::istringstream IS(Text);
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(IS, Line)) {
    ++LineNo;
    // Strip trailing CR (files may be checked out with CRLF).
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty())
      continue;
    if (Line[0] == '#') {
      // The leading comment line is the note formatCorpusEntry writes as
      // "# <note>"; later comments are ignored.
      if (LineNo == 1)
        Out.Note = Line.substr(Line.compare(0, 2, "# ") == 0 ? 2 : 1);
      continue;
    }
    size_t Eq = Line.find('=');
    if (Eq == std::string::npos) {
      Err = "line " + std::to_string(LineNo) + ": expected key=value";
      return false;
    }
    std::string Key = Line.substr(0, Eq), Val = Line.substr(Eq + 1);
    uint64_t U;
    if (Key == "lib") {
      if (!parseLib(Val, Out.S.L)) {
        Err = "unknown lib '" + Val + "'";
        return false;
      }
      SawLib = true;
    } else if (Key == "mut") {
      if (!parseMutation(Val, Out.Mut)) {
        Err = "unknown mutation '" + Val + "'";
        return false;
      }
    } else if (Key == "seed") {
      if (!parseU64(Val, U)) {
        Err = "bad seed";
        return false;
      }
      Out.S.Seed = U;
    } else if (Key == "pb") {
      if (!parseU64(Val, U)) {
        Err = "bad pb";
        return false;
      }
      Out.S.PreemptionBound = static_cast<unsigned>(U);
    } else if (Key == "cap") {
      if (!parseU64(Val, U)) {
        Err = "bad cap";
        return false;
      }
      Out.S.Capacity = static_cast<unsigned>(U);
    } else if (Key == "thread") {
      std::vector<Op> Ops;
      for (const std::string &Tok : splitOn(Val, ',')) {
        Op O;
        size_t Colon = Tok.find(':');
        std::string Name =
            Colon == std::string::npos ? Tok : Tok.substr(0, Colon);
        if (!parseOpCode(Name, O.Code)) {
          Err = "unknown op '" + Name + "'";
          return false;
        }
        if (Colon != std::string::npos) {
          if (!parseU64(Tok.substr(Colon + 1), U)) {
            Err = "bad op arg in '" + Tok + "'";
            return false;
          }
          O.Arg = U;
        }
        Ops.push_back(O);
      }
      Out.S.Threads.push_back(std::move(Ops));
    } else if (Key == "decisions") {
      for (const std::string &Tok : splitOn(Val, ',')) {
        if (!parseU64(Tok, U)) {
          Err = "bad decision '" + Tok + "'";
          return false;
        }
        Out.Decisions.push_back(static_cast<unsigned>(U));
      }
    } else {
      Err = "unknown key '" + Key + "'";
      return false;
    }
  }
  if (!SawLib) {
    Err = "missing lib= line";
    return false;
  }
  if (Out.S.Threads.empty()) {
    Err = "missing thread= lines";
    return false;
  }
  return true;
}
