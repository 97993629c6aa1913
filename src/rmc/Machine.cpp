//===-- rmc/Machine.cpp - Operational RC11 view machine -------------------===//

#include "rmc/Machine.h"

#include "support/Error.h"

#include <cassert>
#include <type_traits>
#include <utility>

using namespace compass;
using namespace compass::rmc;

// Trace lines are assembled from std::string temporaries; guard every call
// site so the untraced hot path (the explorer runs millions of executions
// with tracing off) never materializes them.
#define COMPASS_TRACE(T, Expr)                                                 \
  do {                                                                         \
    if (Tracing)                                                               \
      traceOp((T), (Expr));                                                    \
  } while (0)

Knowledge &Machine::ThreadState::relSlot(Loc L) {
  for (size_t I = 0; I != RelLive; ++I)
    if (Rel[I].L == L)
      return Rel[I].K;
  if (RelLive < Rel.size()) {
    // Recycle a retained entry (keeps its Knowledge capacity).
    Rel[RelLive].L = L;
    Rel[RelLive].K.clear();
  } else {
    Rel.push_back(RelEntry{L, Knowledge()});
  }
  return Rel[RelLive++].K;
}

void Machine::ThreadState::clear() {
  Cur.clear();
  Acq.clear();
  RelFence.clear();
  RelLive = 0;
  HasRead = false;
  LastReadTs = 0;
  Pinned = false;
  PinSession = 0;
}

void Machine::ThreadState::copyFrom(const ThreadState &O) {
  Cur = O.Cur;
  Acq = O.Acq;
  RelFence = O.RelFence;
  if (Rel.size() < O.RelLive)
    Rel.resize(O.RelLive);
  for (size_t I = 0; I != O.RelLive; ++I) {
    Rel[I].L = O.Rel[I].L;
    Rel[I].K = O.Rel[I].K;
  }
  RelLive = O.RelLive;
  HasRead = O.HasRead;
  LastReadTs = O.LastReadTs;
  Pinned = O.Pinned;
  PinSession = O.PinSession;
}

unsigned Machine::addThread() {
  if (LiveThreads < Threads.size()) {
    Threads[LiveThreads].clear();
    Saved[LiveThreads].Changed = true;
  } else {
    Threads.emplace_back();
    Saved.emplace_back();
  }
  return static_cast<unsigned>(LiveThreads++);
}

void Machine::reset() {
  Mem.reset();
  LiveThreads = 0;
  ScPhys.clear();
  ScSaved.Changed = true;
  Raced = false;
  RaceMsg.clear();
  FaultRule = "RACE";
  Trace.clear();
  LastFp = Footprint();
  RfFloorOn = false;
  RfFloorEmpty = false;
  // OpSeqN is monotonic across resets by design; Tracing is sticky (its
  // enabler re-asserts it per run). The snapshot copies stay: a root run
  // below live snapshots marks every thread changed (addThread), and the
  // next save drops the copies of the levels it reuses.
}

//===----------------------------------------------------------------------===//
// Copy-on-write support
//===----------------------------------------------------------------------===//

template <typename T>
bool Machine::CopyStack<T>::save(unsigned Level, const T &Now) {
  while (Live && Entries[Live - 1].Level >= Level)
    --Live;
  assert((Changed || Live) && "unchanged state with no copy below the level");
  if (!Changed)
    return false;
  if (Live == Entries.size())
    Entries.emplace_back();
  Entry &E = Entries[Live++];
  E.Level = Level;
  if constexpr (std::is_same_v<T, View>)
    E.Copy = Now;
  else
    E.Copy.copyFrom(Now);
  Changed = false;
  return true;
}

template <typename T>
bool Machine::CopyStack<T>::restore(unsigned Level, T &Now) {
  // A copy above the level means Now changed after the level was saved.
  bool Copy = Changed;
  while (Live && Entries[Live - 1].Level > Level) {
    --Live;
    Copy = true;
  }
  Changed = false;
  if (!Copy)
    return false;
  assert(Live && "no copy at or below a live snapshot's level");
  if constexpr (std::is_same_v<T, View>)
    Now = Entries[Live - 1].Copy;
  else
    Now.copyFrom(Entries[Live - 1].Copy);
  return true;
}

void Machine::saveSnapshot(Snap &S, unsigned Level) {
  S.Level = Level;
  S.LiveThreads = LiveThreads;
  S.MemEpoch = Mem.epoch();
  unsigned Copies = ScSaved.save(Level, ScPhys);
  for (size_t T = 0; T != LiveThreads; ++T)
    Copies += Saved[T].save(Level, Threads[T]);
  LastCopies = Copies;
}

void Machine::restoreSnapshot(const Snap &S) {
  if (LiveThreads != S.LiveThreads)
    fatalError("copy-on-write restore: thread count diverged from snapshot");
  Mem.trimToEpoch(S.MemEpoch);
  unsigned Copies = ScSaved.restore(S.Level, ScPhys);
  for (size_t T = 0; T != LiveThreads; ++T)
    Copies += Saved[T].restore(S.Level, Threads[T]);
  LastCopies = Copies;
  // A snapshot boundary is a step the execution passed without a pending
  // fault, so fault state restores to the constant no-fault value.
  Raced = false;
  RaceMsg.clear();
  FaultRule = "RACE";
}

uint64_t Machine::stateDigest() const {
  uint64_t H = LiveThreads;
  auto Mix = [&H](uint64_t W) {
    H = (H ^ W) * 0x9e3779b97f4a7c15ull;
    H ^= H >> 29;
  };
  const Loc NumLocs = Mem.size();
  auto MixView = [&](const View &V) {
    for (Loc L = 0; L != NumLocs; ++L)
      Mix(V.get(L));
  };
  auto MixKnow = [&](const Knowledge &K) {
    MixView(K.Phys);
    const std::vector<uint64_t> &W = K.Events.words();
    size_t N = W.size();
    while (N && !W[N - 1])
      --N;
    Mix(N);
    for (size_t I = 0; I != N; ++I)
      Mix(W[I]);
  };
  MixView(ScPhys);
  for (size_t T = 0; T != LiveThreads; ++T) {
    const ThreadState &TS = Threads[T];
    MixKnow(TS.Cur);
    MixKnow(TS.Acq);
    MixKnow(TS.RelFence);
    Mix(TS.RelLive);
    for (size_t I = 0; I != TS.RelLive; ++I) {
      Mix(TS.Rel[I].L);
      MixKnow(TS.Rel[I].K);
    }
    Mix(TS.HasRead ? uint64_t(TS.LastReadTs) + 1 : 0);
    Mix(TS.Pinned);
    Mix(TS.PinSession);
  }
  return H;
}

Machine::ThreadState &Machine::thread(unsigned T) {
  if (T >= LiveThreads)
    fatalError("unknown thread id");
  Saved[T].Changed = true;
  return Threads[T];
}

const Machine::ThreadState &Machine::thread(unsigned T) const {
  if (T >= LiveThreads)
    fatalError("unknown thread id");
  return Threads[T];
}

Knowledge &Machine::threadCur(unsigned T) { return thread(T).Cur; }

const Knowledge &Machine::threadCur(unsigned T) const {
  return thread(T).Cur;
}

Knowledge &Machine::threadAcq(unsigned T) { return thread(T).Acq; }

Timestamp Machine::lastReadTs(unsigned T) const {
  const ThreadState &TS = thread(T);
  if (!TS.HasRead)
    fatalError("lastReadTs: thread has not performed a read");
  return TS.LastReadTs;
}

void Machine::reportFault(const char *Rule, std::string Msg) {
  if (Raced)
    return; // First fault wins; the scheduler stops at the next step.
  Raced = true;
  FaultRule = Rule;
  RaceMsg = std::move(Msg);
}

void Machine::reportRace(unsigned T, Loc L, const char *What) {
  reportFault("RACE", "data race: thread " + std::to_string(T) + " " +
                          What + " on '" + Mem.cellName(L) +
                          "' without having observed all writes to it");
}

void Machine::checkNotFreed(unsigned T, Loc L, const char *What) {
  const Cell &C = Mem.cell(L);
  if (C.Life == CellLife::Freed)
    reportFault("USE_AFTER_RETIRE",
                "use after retire: thread " + std::to_string(T) + " " +
                    What + " on '" + Mem.cellName(L) +
                    "', which was retired and freed before the access");
}

void Machine::traceOp(unsigned T, const std::string &Line) {
  // Appended piecewise: GCC 12 reports a false -Wrestrict on the inlined
  // `"T" + std::string` form.
  std::string Out = "T";
  Out += std::to_string(T);
  Out += ": ";
  Out += Line;
  Trace.push_back(std::move(Out));
}

void Machine::applyRead(ThreadState &TS, Loc L, const Cell &C,
                        Timestamp Ts, MemOrder O, bool Sc) {
  if (Sc) {
    TS.Cur.Phys.joinWith(ScPhys);
    TS.Acq.Phys.joinWith(ScPhys);
  }
  // Every atomic read raises the per-location component of cur and folds
  // the message into acq; acquire reads fold it into cur as well
  // (ACQ-READ, Section 2.3).
  TS.Cur.Phys.raise(L, Ts);
  TS.Acq.Phys.raise(L, Ts);
  TS.Acq.joinWith(C.know(Ts));
  if (isAcquire(O))
    TS.Cur.joinWith(C.know(Ts));
  TS.HasRead = true;
  TS.LastReadTs = Ts;
}

const Knowledge &Machine::relView(const ThreadState &TS, Loc L) {
  RelScratch = TS.RelFence; // Capacity-reusing copy into the scratch.
  if (const Knowledge *K = TS.findRel(L))
    RelScratch.joinWith(*K);
  return RelScratch;
}

Timestamp Machine::applyWrite(ThreadState &TS, Loc L, Value V,
                              const Knowledge &MsgK, bool Release) {
  Timestamp Ts = Mem.append(L, V, MsgK);
  // The message's view includes the write itself (REL-WRITE's
  // `h[t ↦ (v, V')]` with `t ∈ V'`).
  Knowledge &K = Mem.knowRef(L, Ts);
  K.Phys.raise(L, Ts);
  TS.Cur.Phys.raise(L, Ts);
  TS.Acq.Phys.raise(L, Ts);
  if (Release)
    TS.relSlot(L) = K;
  return Ts;
}

Value Machine::load(unsigned T, Loc L, MemOrder O) {
  noteOp(L, Footprint::Kind::Read, O == MemOrder::SeqCst,
         O != MemOrder::NonAtomic);
  // Read-only until the choice (see thread() in Machine.h).
  const ThreadState &Seen = std::as_const(*this).thread(T);
  const Cell &C = Mem.cell(L);
  checkNotFreed(T, L, "load");

  if (O == MemOrder::NonAtomic) {
    if (Seen.Cur.Phys.get(L) != C.latestTs())
      reportRace(T, L, "non-atomic read");
    COMPASS_TRACE(T, "ld.na " + Mem.cellName(L) + " -> " +
                         std::to_string(C.latestVal()));
    return C.latestVal();
  }

  // No view changes before the choice (see Machine.h): an SC read's floor
  // includes the SC view, which applyRead joins after the choice.
  const bool Sc = O == MemOrder::SeqCst;
  const Timestamp From = readFloor(Seen, L, Sc);
  const unsigned NFull = Mem.countReadableFrom(L, From);
  unsigned N = NFull;
  // A pending reads-from floor (source-set restricted re-run) cuts the old
  // tail of the newest-first choice set; the restricted set is non-empty
  // by construction (the floor is only installed when newer messages
  // exist) and a prefix of the unrestricted enumeration. The decision is
  // still recorded at the *unrestricted* arity, with the restricted count
  // as its enumeration limit — so the trace replays unchanged through a
  // reduction-free re-run, which sees the full choice set here.
  if (const uint32_t Floor = takeRfFloor(L))
    if (static_cast<Timestamp>(Floor) > From)
      N = Mem.countReadableFrom(L, static_cast<Timestamp>(Floor));
  unsigned Pick = NFull == 1 ? 0 : Choices.choose(NFull, N, ChoiceKind::Load);
  // Choice 0 reads the newest message; choice N-1 the oldest readable.
  Timestamp Ts = C.latestTs() - Pick;
  ThreadState &TS = thread(T);
  applyRead(TS, L, C, Ts, O, Sc);
  if (Sc)
    scMut().joinWith(TS.Cur.Phys);
  COMPASS_TRACE(T, std::string("ld.") + memOrderName(O) + " " +
                       Mem.cellName(L) + " -> " +
                       std::to_string(C.val(Ts)) + " @t" +
                       std::to_string(Ts));
  return C.val(Ts);
}

Value Machine::loadWhere(unsigned T, Loc L, MemOrder O,
                         const ValuePred &Pred) {
  noteOp(L, Footprint::Kind::Read, O == MemOrder::SeqCst,
         O != MemOrder::NonAtomic);
  const Cell &C = Mem.cell(L);
  checkNotFreed(T, L, "conditional load");
  assert(O != MemOrder::NonAtomic && "conditional loads must be atomic");

  const bool Sc = O == MemOrder::SeqCst;
  const Timestamp From = readFloor(T, L, Sc);
  // Collect readable messages satisfying the predicate, newest first.
  SmallVec<Timestamp, 16> &Candidates = CandScratch;
  Candidates.clear();
  for (Timestamp Ts = C.latestTs() + 1; Ts-- > From;)
    if (Pred(C.val(Ts)))
      Candidates.push_back(Ts);
  if (Candidates.empty())
    fatalError("loadWhere: no readable message satisfies the predicate");
  // A pending reads-from floor keeps only the candidates at or past it — a
  // prefix of the newest-first enumeration, so the choice is recorded at
  // the unrestricted arity with the restricted count as its enumeration
  // limit (replay-compatible with a reduction-free re-run). Unlike a plain
  // load the restricted set can be empty (no *new* message satisfies the
  // predicate): the step then reads the newest unrestricted candidate
  // without recording a choice — the execution is already fully covered
  // and the scheduler abandons it as RfPruned right after the step, so no
  // trace of it survives to be replayed.
  const unsigned NumFull = static_cast<unsigned>(Candidates.size());
  unsigned NumChoices = NumFull;
  bool RestrictedEmpty = false;
  if (const uint32_t Floor = takeRfFloor(L)) {
    unsigned Kept = 0;
    while (Kept != NumChoices &&
           Candidates[Kept] >= static_cast<Timestamp>(Floor))
      ++Kept;
    if (Kept == 0) {
      RestrictedEmpty = true;
      RfFloorEmpty = true;
    } else {
      NumChoices = Kept;
    }
  }
  unsigned Pick = 0;
  if (!RestrictedEmpty && NumFull > 1)
    Pick = Choices.choose(NumFull, NumChoices, ChoiceKind::LoadWhere);
  Timestamp Ts = Candidates[Pick];
  ThreadState &TS = thread(T);
  applyRead(TS, L, C, Ts, O, Sc);
  if (Sc)
    scMut().joinWith(TS.Cur.Phys);
  COMPASS_TRACE(T, std::string("ld-wait.") + memOrderName(O) + " " +
                       Mem.cellName(L) + " -> " +
                       std::to_string(C.val(Ts)) + " @t" +
                       std::to_string(Ts));
  return C.val(Ts);
}

bool Machine::anyReadableSatisfies(unsigned T, Loc L, bool Sc,
                                   const ValuePred &Pred) const {
  const Cell &C = Mem.cell(L);
  for (Timestamp Ts = readFloor(T, L, Sc); Ts <= C.latestTs(); ++Ts)
    if (Pred(C.val(Ts)))
      return true;
  return false;
}

void Machine::store(unsigned T, Loc L, Value V, MemOrder O) {
  noteOp(L, Footprint::Kind::Write, O == MemOrder::SeqCst,
         O != MemOrder::NonAtomic);
  ThreadState &TS = thread(T);
  const Cell &C = Mem.cell(L);
  checkNotFreed(T, L, "store");

  if (O == MemOrder::NonAtomic) {
    if (TS.Cur.Phys.get(L) != C.latestTs())
      reportRace(T, L, "non-atomic write");
    // Non-atomic messages transfer no knowledge.
    applyWrite(TS, L, V, Knowledge(), /*Release=*/false);
    COMPASS_TRACE(T, "st.na " + Mem.cellName(L) + " := " +
                         std::to_string(V));
    return;
  }

  // The append copies the view into the message slot before applyWrite
  // raises the thread's own views.
  bool Release = isRelease(O);
  applyWrite(TS, L, V, Release ? TS.Cur : relView(TS, L), Release);
  if (O == MemOrder::SeqCst)
    scMut().joinWith(TS.Cur.Phys);
  COMPASS_TRACE(T, std::string("st.") + memOrderName(O) + " " +
                       Mem.cellName(L) + " := " + std::to_string(V));
}

Machine::CasResult Machine::cas(unsigned T, Loc L, Value Expected,
                                Value Desired, MemOrder SuccO,
                                MemOrder FailO) {
  const bool Sc = SuccO == MemOrder::SeqCst || FailO == MemOrder::SeqCst;
  const Cell &C = Mem.cell(L);
  checkNotFreed(T, L, "compare-and-swap");
  assert(SuccO != MemOrder::NonAtomic && FailO != MemOrder::NonAtomic &&
         "CAS must be atomic");

  const Timestamp From = readFloor(T, L, Sc);
  Timestamp Latest = C.latestTs();

  // Alternative 0 (when available): succeed against the mo-maximal message.
  // Remaining alternatives: fail by reading any readable message with a
  // different value, newest first. A readable non-maximal message carrying
  // the expected value is not a legal read for a strong CAS (atomicity
  // would be violated), so it is simply not offered.
  bool CanSucceed = C.latestVal() == Expected;
  SmallVec<Timestamp, 16> &FailTs = FailScratch;
  FailTs.clear();
  for (Timestamp Ts = Latest + 1; Ts-- > From;)
    if (C.val(Ts) != Expected)
      FailTs.push_back(Ts);

  const unsigned NumFailsFull = static_cast<unsigned>(FailTs.size());
  unsigned NumFails = NumFailsFull;
  // A pending reads-from floor cuts the old tail of the newest-first fail
  // reads (the success alternative reads the mo-maximum, which is always
  // at or past the floor); as with loads, the choice is recorded at the
  // unrestricted arity with the restricted count as its enumeration limit
  // so replay stays decision-compatible. Never empty: either the
  // mo-maximum carries the expected value (success is offered) or it is
  // itself a fail candidate at or past the floor.
  if (const uint32_t Floor = takeRfFloor(L)) {
    unsigned Kept = 0;
    while (Kept != NumFails &&
           FailTs[Kept] >= static_cast<Timestamp>(Floor))
      ++Kept;
    NumFails = Kept;
  }

  const unsigned NumAllFull = (CanSucceed ? 1 : 0) + NumFailsFull;
  unsigned NumAlternatives = (CanSucceed ? 1 : 0) + NumFails;
  if (NumAlternatives == 0)
    fatalError("CAS has no legal read; history corrupt");
  unsigned Pick =
      NumAllFull == 1
          ? 0
          : Choices.choose(NumAllFull, NumAlternatives, ChoiceKind::Cas);

  ThreadState &TS = thread(T);
  if (CanSucceed && Pick == 0) {
    noteOp(L, Footprint::Kind::Update, Sc, /*Atomic=*/true);
    applyRead(TS, L, C, Latest, SuccO, Sc);
    // Release-sequence behaviour: the new message carries the read
    // message's view, so a chain of RMWs forwards earlier releases.
    MsgScratch = C.know(Latest);
    MsgScratch.joinWith(isRelease(SuccO) ? TS.Cur : relView(TS, L));
    applyWrite(TS, L, Desired, MsgScratch, isRelease(SuccO));
    if (SuccO == MemOrder::SeqCst)
      scMut().joinWith(TS.Cur.Phys);
    COMPASS_TRACE(T, std::string("cas.") + memOrderName(SuccO) + " " +
                         Mem.cellName(L) + " " + std::to_string(Expected) +
                         " -> " + std::to_string(Desired) + " ok");
    return {true, Expected};
  }

  // A failed CAS only reads.
  noteOp(L, Footprint::Kind::Read, Sc, /*Atomic=*/true);
  Timestamp RTs = FailTs[Pick - (CanSucceed ? 1 : 0)];
  applyRead(TS, L, C, RTs, FailO, Sc);
  if (FailO == MemOrder::SeqCst)
    scMut().joinWith(TS.Cur.Phys);
  COMPASS_TRACE(T, std::string("cas.") + memOrderName(FailO) + " " +
                       Mem.cellName(L) + " exp " +
                       std::to_string(Expected) + " saw " +
                       std::to_string(C.val(RTs)) + " fail");
  return {false, C.val(RTs)};
}

Value Machine::fetchAdd(unsigned T, Loc L, Value Add, MemOrder O) {
  noteOp(L, Footprint::Kind::Update, O == MemOrder::SeqCst,
         /*Atomic=*/true);
  ThreadState &TS = thread(T);
  const Cell &C = Mem.cell(L);
  checkNotFreed(T, L, "fetch-add");
  assert(O != MemOrder::NonAtomic && "RMW must be atomic");
  // A fetch-add has no reads-from choice (it reads the mo-maximum, which
  // is always at or past any pending floor); just consume the floor.
  (void)takeRfFloor(L);

  // An RMW reads the mo-maximal message (DESIGN.md Section 4).
  Timestamp RTs = C.latestTs();
  Value Old = C.val(RTs);
  applyRead(TS, L, C, RTs, O, O == MemOrder::SeqCst);
  MsgScratch = C.know(RTs);
  MsgScratch.joinWith(isRelease(O) ? TS.Cur : relView(TS, L));
  applyWrite(TS, L, Old + Add, MsgScratch, isRelease(O));
  if (O == MemOrder::SeqCst)
    scMut().joinWith(TS.Cur.Phys);
  COMPASS_TRACE(T, std::string("faa.") + memOrderName(O) + " " +
                       Mem.cellName(L) + " " + std::to_string(Old) +
                       " += " + std::to_string(Add));
  return Old;
}

void Machine::fence(unsigned T, MemOrder O) {
  noteOp(0, Footprint::Kind::Fence, O == MemOrder::SeqCst);
  ThreadState &TS = thread(T);
  switch (O) {
  case MemOrder::Acquire:
    TS.Cur.joinWith(TS.Acq);
    break;
  case MemOrder::Release:
    TS.RelFence = TS.Cur;
    break;
  case MemOrder::AcqRel:
    TS.Cur.joinWith(TS.Acq);
    TS.RelFence = TS.Cur;
    break;
  case MemOrder::SeqCst:
    TS.Cur.joinWith(TS.Acq);
    TS.Cur.Phys.joinWith(ScPhys);
    TS.Acq.Phys.joinWith(ScPhys);
    scMut() = TS.Cur.Phys;
    TS.RelFence = TS.Cur;
    break;
  default:
    fatalError("invalid fence order");
  }
  COMPASS_TRACE(T, std::string("fence.") + memOrderName(O));
}

void Machine::pinEnter(unsigned T) {
  noteOp(0, Footprint::Kind::Reclaim, /*Sc=*/false);
  ThreadState &TS = thread(T);
  if (TS.Pinned)
    fatalError("pinEnter: thread already pinned");
  TS.Pinned = true;
  ++TS.PinSession;
  COMPASS_TRACE(T, "ebr.pin #" + std::to_string(TS.PinSession));
}

void Machine::pinExit(unsigned T) {
  noteOp(0, Footprint::Kind::Reclaim, /*Sc=*/false);
  ThreadState &TS = thread(T);
  if (!TS.Pinned)
    fatalError("pinExit: thread not pinned");
  TS.Pinned = false;
  COMPASS_TRACE(T, "ebr.unpin #" + std::to_string(TS.PinSession));
}

void Machine::retire(unsigned T, Loc L, unsigned Count) {
  noteOp(L, Footprint::Kind::Reclaim, /*Sc=*/false);
  for (unsigned I = 0; I != Count; ++I) {
    Cell &C = Mem.cell(L + I);
    if (C.Life != CellLife::Live)
      fatalError("retire: cell retired twice");
    Mem.setLife(L + I, CellLife::Retired); // Logs prev life + pins.
    C.RetirePins.clear();
    for (size_t P = 0; P != LiveThreads; ++P)
      if (Threads[P].Pinned)
        C.RetirePins.push_back(
            {static_cast<unsigned>(P), Threads[P].PinSession});
  }
  COMPASS_TRACE(T, "ebr.retire " + Mem.cellName(L) + "×" +
                       std::to_string(Count));
}

void Machine::freeCells(unsigned T, Loc L, unsigned Count) {
  noteOp(L, Footprint::Kind::Free, /*Sc=*/false);
  for (unsigned I = 0; I != Count; ++I) {
    Cell &C = Mem.cell(L + I);
    if (C.Life != CellLife::Retired)
      fatalError("freeCells: cell not retired (double free or free of a "
                 "live cell)");
    for (const PinRef &P : C.RetirePins)
      if (Threads[P.Tid].Pinned && Threads[P.Tid].PinSession == P.Session) {
        reportFault("PREMATURE_FREE",
                    "premature free: thread " + std::to_string(T) +
                        " frees '" + Mem.cellName(L + I) +
                        "' while thread " + std::to_string(P.Tid) +
                        " is still pinned in the critical section that "
                        "overlapped the retire");
        break;
      }
    Mem.setLife(L + I, CellLife::Freed);
  }
  COMPASS_TRACE(T, "ebr.free " + Mem.cellName(L) + "×" +
                       std::to_string(Count));
}
