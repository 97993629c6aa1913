//===-- graph/Event.cpp - Library operation events -------------------------===//

#include "graph/Event.h"

using namespace compass;
using namespace compass::graph;

const char *compass::graph::opKindName(OpKind K) {
  switch (K) {
  case OpKind::Invalid:
    return "invalid";
  case OpKind::Enq:
    return "Enq";
  case OpKind::DeqOk:
    return "Deq";
  case OpKind::DeqEmpty:
    return "Deq(eps)";
  case OpKind::Push:
    return "Push";
  case OpKind::PopOk:
    return "Pop";
  case OpKind::PopEmpty:
    return "Pop(eps)";
  case OpKind::Exchange:
    return "Xchg";
  case OpKind::Steal:
    return "Steal";
  case OpKind::StealEmpty:
    return "Steal(eps)";
  }
  return "?";
}

static std::string valueStr(rmc::Value V) {
  if (V == EmptyVal)
    return "eps";
  if (V == BottomVal)
    return "bot";
  if (V == SentinelVal)
    return "SENTINEL";
  if (V == FailRaceVal)
    return "FAIL_RACE";
  return std::to_string(V);
}

std::string Event::str(EventId Id) const {
  std::string Out = "#" + std::to_string(Id) + " " + opKindName(Kind);
  switch (Kind) {
  case OpKind::Enq:
  case OpKind::DeqOk:
  case OpKind::Push:
  case OpKind::PopOk:
  case OpKind::Steal:
    Out += "(" + valueStr(V1) + ")";
    break;
  case OpKind::Exchange:
    Out += "(" + valueStr(V1) + ", " + valueStr(V2) + ")";
    break;
  default:
    break;
  }
  Out += " obj" + std::to_string(ObjId) + " T" + std::to_string(Thread) +
         " c" + std::to_string(CommitIdx);
  return Out;
}
