//===-- support/Choice.cpp - Nondeterminism resolution interface ---------===//

#include "support/Choice.h"

#include <cassert>

using namespace compass;

const char *compass::choiceKindName(ChoiceKind K) {
  static constexpr const char *Names[NumChoiceKinds] = {"cas", "load",
                                                        "load-where", "sched"};
  return Names[static_cast<size_t>(K)];
}

bool compass::parseChoiceKind(std::string_view S, ChoiceKind &Out) {
  for (size_t I = 0; I != NumChoiceKinds; ++I) {
    const ChoiceKind K = static_cast<ChoiceKind>(I);
    if (S == choiceKindName(K)) {
      Out = K;
      return true;
    }
  }
  return false;
}

ChoiceSource::~ChoiceSource() = default;

unsigned FirstChoice::choose(unsigned Count, unsigned Limit, ChoiceKind) {
  (void)Count;
  (void)Limit;
  assert(Limit >= 1 && Limit <= Count && "enumeration limit out of range");
  return 0;
}
