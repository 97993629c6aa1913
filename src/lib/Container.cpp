//===-- lib/Container.cpp - Simulated container interfaces -----------------===//

#include "lib/Container.h"

using namespace compass::lib;

// Out-of-line anchors for the interface vtables.
SimQueue::~SimQueue() = default;
SimStack::~SimStack() = default;
