//===-- spec/Composition.h - Elimination-stack graph composition -*- C++ -*-===//
//
// Part of compass-cxx. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulation relation of Section 4.1, as a graph transformation: the
/// elimination stack's event graph is *derived* from its base stack's and
/// exchanger's graphs —
///
///  * base-stack Push/Pop/Pop(ε) events become ES events unchanged;
///  * a matched exchange pair between a value v (a pusher) and SENTINEL
///    (a popper) becomes an ES Push(v) immediately followed by an ES
///    Pop(v) at the pair's two adjacent commit indices, with an so edge —
///    the atomicity of the paired commits is exactly what makes the
///    eliminated pair LIFO-invisible to concurrent operations;
///  * failed exchanges, and pairs between two pushers or two poppers
///    (which both report failure to their callers), vanish.
///
/// Checking StackConsistent on the derived graph is experiment E6's
/// compositional verification: it uses only the component graphs, never
/// the implementations' memory operations.
///
//===----------------------------------------------------------------------===//

#ifndef COMPASS_SPEC_COMPOSITION_H
#define COMPASS_SPEC_COMPOSITION_H

#include "graph/EventGraph.h"

namespace compass::spec {

/// Builds the elimination stack's derived event graph from the base
/// stack's (\p BaseObj) and exchanger's (\p ExObj) events in \p G into
/// \p Out, reset first and its event slots' storage reused. All derived
/// events carry \p EsObj as their object id; ids and commit indices are
/// inherited (within an eliminated pair, the push always takes the smaller
/// index and the pop's logical view is the pair's shared one).
void buildElimStackGraph(const graph::EventGraph &G, unsigned BaseObj,
                         unsigned ExObj, unsigned EsObj,
                         graph::EventGraph &Out);

/// The same, into a fresh graph.
inline graph::EventGraph buildElimStackGraph(const graph::EventGraph &G,
                                             unsigned BaseObj, unsigned ExObj,
                                             unsigned EsObj) {
  graph::EventGraph Out;
  buildElimStackGraph(G, BaseObj, ExObj, EsObj, Out);
  return Out;
}

} // namespace compass::spec

#endif // COMPASS_SPEC_COMPOSITION_H
