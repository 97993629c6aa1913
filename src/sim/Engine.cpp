//===-- sim/Engine.cpp - Copy-on-write execution engine -------------------===//

#include "sim/Engine.h"

#include <cassert>
#include <cstring>

using namespace compass;
using namespace compass::sim;

Engine::Engine(Explorer &Ex, rmc::Machine &M, Scheduler &S)
    : Ex(Ex), M(M), S(S) {}

void Engine::bind(Workload::Body &B) {
  assert(!Body && "engine already bound");
  Body = &B;
  MaxSteps = Ex.options().MaxStepsPerExec;
  // A resumed execution would lack its prefix's trace lines.
  M.enableTrace(false);
  S.setPreemptionBound(Ex.options().PreemptionBound);
  S.setReduction(Ex.reduction());
  CowEligible = Ex.options().Engine != EnginePath::RootReplay &&
                (B.CowSafe || (B.CowSave && B.CowRestore));
  if (CowEligible)
    Ex.setSnapshotHook([this](size_t NodeIndex) { onSnapshot(NodeIndex); });
  else
    Ex.setSnapshotHook(nullptr);
  Depth = 0;
  Resumes = Roots = StepsExecuted = StepsLogical = 0;
}

void Engine::unbind() {
  {
    // The last execution's frames live in this engine's arena.
    detail::FrameArena::Scope InArena(Frames);
    S.reset();
  }
  for (SnapSlot &Slot : Slots)
    Slot.Client.reset();
  Body = nullptr;
}

void Engine::seed(DecisionTree::Prefix P) {
  Depth = 0;
  Ex.seed(std::move(P));
}

void Engine::onSnapshot(size_t NodeIndex) {
  if (Depth == Slots.size())
    Slots.emplace_back();
  SnapSlot &Slot = Slots[Depth++];
  Slot.NodeIndex = NodeIndex;
  // Nothing has changed since the step's loop top, whether the choice is
  // the scheduler's pick or an operation's: no operation changes a view
  // before its choice, the operation is the first thing its resumed frame
  // runs, and the step writes no scheduler or sleep state before that
  // resume. The divergent sibling re-executes the whole step.
  M.saveSnapshot(Slot.MSnap, static_cast<unsigned>(Depth - 1));
  S.saveBoundary(Slot.SBound);
  if (Body->CowSave)
    Body->CowSave(Slot.Client);
  const SnapSlot *Below = Depth > 1 ? &Slots[Depth - 2] : nullptr;
  Slot.FrameOff = Below ? Below->FrameOff + Below->FrameLen : 0;
  Slot.FrameLen = Frames.used();
  if (FrameBytes.size() < Slot.FrameOff + Slot.FrameLen)
    FrameBytes.resize(Slot.FrameOff + Slot.FrameLen);
  std::memcpy(FrameBytes.data() + Slot.FrameOff, Frames.data(),
              Slot.FrameLen);
}

void Engine::rootSetup() {
  M.reset();
  S.reset();
  Frames.clear();
  Body->Setup(M, S);
  ++Roots;
}

void Engine::resumeFrom(const SnapSlot &Slot) {
  // The previous execution passed this slot's loop top. If it ran no step
  // since, it stopped at the slot's own pick (a sleep-blocked sibling):
  // the frames, the machine, memory and the client state are as the
  // snapshot left them, and only the sleep state the pruned pick
  // committed goes back, with the scheduler's records.
  if (S.steps() != Slot.SBound.Steps) {
    Frames.restore(FrameBytes.data() + Slot.FrameOff, Slot.FrameLen);
    M.restoreSnapshot(Slot.MSnap);
    if (Body->CowRestore)
      Body->CowRestore(Slot.Client);
  }
  S.restoreBoundary(Slot.SBound);
  // The decisions before the boundary are already on the tree path.
  Ex.resumeReplayAt(Slot.SBound.TreePos);
  ++Resumes;
}

Engine::ExecResult Engine::runOne() {
  ExecResult Out;
  {
    detail::FrameArena::Scope InArena(Frames);
    bool Resumed = false;
    uint64_t BaseSteps = 0;
    if (CowEligible) {
      const auto &Trace = Ex.currentTrace();
      if (!Trace.empty()) {
        // The DFS just advanced the decision at the path's tail; pop the
        // snapshots of the discarded deeper subtree back into the pool.
        const size_t DivIdx = Trace.size() - 1;
        while (Depth != 0 && Slots[Depth - 1].NodeIndex > DivIdx)
          --Depth;
        if (Depth != 0 && Slots[Depth - 1].NodeIndex == DivIdx) {
          resumeFrom(Slots[Depth - 1]);
          BaseSteps = Slots[Depth - 1].SBound.Steps;
          Resumed = true;
        }
        // else: no snapshot for the divergence node (e.g. the previous
        // execution ran under a fallback) — execute from the root below.
      }
    }
    if (!Resumed)
      rootSetup();

    Out.Run = S.run(MaxSteps);
    StepsLogical += S.steps();
    StepsExecuted += S.steps() - BaseSteps;
  }
  if (Body->Check)
    Out.CheckOk = Body->Check(M, S, Out.Run);
  return Out;
}
