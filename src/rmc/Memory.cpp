//===-- rmc/Memory.cpp - Per-location write histories ---------------------===//

#include "rmc/Memory.h"

#include "support/Error.h"

#include <cassert>

using namespace compass;
using namespace compass::rmc;

Loc Memory::alloc(std::string_view Name, unsigned Count, Value Init) {
  assert(Count >= 1 && "allocating zero cells");
  Loc Base = static_cast<Loc>(Live);
  for (unsigned I = 0; I != Count; ++I) {
    if (Live < Cells.size()) {
      // Reuse a retained cell from an earlier execution: rewind the history
      // watermark to the single initial message in place. Allocation order
      // replays deterministically per decision path, so the retained name
      // usually matches and the compare avoids a string assignment.
      Cell &C = Cells[Live];
      if (C.Name != Name)
        C.Name.assign(Name);
      C.Off = Count == 1 ? ~0u : I;
      C.Life = CellLife::Live;
      C.RetirePins.clear();
      C.Len = 1;
      if (C.Vals.empty()) {
        C.Vals.push_back(Init);
        C.Knows.emplace_back();
      } else {
        C.Vals[0] = Init;
        C.Knows[0].clear();
      }
    } else {
      Cell C;
      C.Name.assign(Name);
      C.Off = Count == 1 ? ~0u : I;
      C.Vals.push_back(Init);
      C.Knows.emplace_back();
      C.Len = 1;
      Cells.push_back(std::move(C));
    }
    ++Live;
  }
  return Base;
}

const Cell &Memory::cell(Loc L) const {
  if (L >= Live)
    fatalError("memory access to unallocated location");
  return Cells[L];
}

Cell &Memory::cell(Loc L) {
  if (L >= Live)
    fatalError("memory access to unallocated location");
  return Cells[L];
}

std::string Memory::cellName(Loc L) const {
  const Cell &C = cell(L);
  if (C.Off == ~0u)
    return C.Name;
  return C.Name + "+" + std::to_string(C.Off);
}

Timestamp Memory::append(Loc L, Value V, const Knowledge &Know) {
  Cell &C = cell(L);
  Timestamp Ts = static_cast<Timestamp>(C.Len);
  if (C.Len < C.Vals.size()) {
    // Overwrite a retained slot in place; the Knowledge assignment reuses
    // the slot's view/id-set heap storage.
    C.Vals[Ts] = V;
    C.Knows[Ts] = Know;
  } else {
    C.Vals.push_back(V);
    C.Knows.push_back(Know);
  }
  ++C.Len;
  AppendLog.push_back(L);
  return Ts;
}

unsigned Memory::countReadableFrom(Loc L, Timestamp From) const {
  const Cell &C = cell(L);
  Timestamp Latest = C.latestTs();
  assert(From <= Latest && "thread view ahead of the history");
  return Latest - From + 1;
}

void Memory::setLife(Loc L, CellLife NewLife) {
  Cell &C = cell(L);
  if (LifeLive == LifeLog.size())
    LifeLog.emplace_back();
  LifeEvent &E = LifeLog[LifeLive++];
  E.L = L;
  E.PrevLife = C.Life;
  E.PrevPins = C.RetirePins; // Capacity-reusing copy.
  C.Life = NewLife;
}

void Memory::reset() {
  Live = 0;
  AppendLog.clear();
  LifeLive = 0;
}

void Memory::trimToEpoch(const Epoch &E) {
  assert(E.Appends <= AppendLog.size() && "epoch from the future");
  assert(E.LifeEvents <= LifeLive && "epoch from the future");
  while (AppendLog.size() > E.Appends) {
    Loc L = AppendLog.back();
    AppendLog.pop_back();
    Cell &C = Cells[L];
    assert(C.Len > 1 && "append undo would drop the init message");
    --C.Len;
  }
  while (LifeLive > E.LifeEvents) {
    LifeEvent &Ev = LifeLog[--LifeLive];
    Cell &C = Cells[Ev.L];
    C.Life = Ev.PrevLife;
    // A swap, so both vectors keep their storage.
    C.RetirePins.swap(Ev.PrevPins);
  }
  assert(E.Live <= Live && "epoch allocated more than the present");
  Live = E.Live;
}
