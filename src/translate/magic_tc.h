// Bound-closure specialization: magic sets, restricted to TC predicates.
//
// Section 6 of the paper points implementations at "the existing work on
// transitive closure computation and linear Datalog optimization". The
// lambda translation materializes every closure in full, even when the
// query fixes an endpoint (the Figure 12 RT-scale query asks for cp-paths
// *from Rome* and *to Tokyo*). This pass rewrites such closures into
// seeded reachability:
//
//   uses of  t(c.., Y.., W..)  with a constant X-block become
//       t@c(Y, W) :- q(c, Y, W).
//       t@c(Y, W) :- t@c(Z, W), q(Z, Y, W).      (forward seeding)
//
//   uses of  t(X.., c.., W..)  with a constant Y-block become
//       t@..c(X, W) :- q(X, c, W).
//       t@..c(X, W) :- q(X, Z, W), t@..c(Z, W).  (backward seeding)
//
// A closure's defining TC rules are dropped once every use has been
// specialized (unless the predicate is protected as a query result).
// The rewrite is semantics-preserving; the fig12 bench measures the win.

#ifndef GRAPHLOG_TRANSLATE_MAGIC_TC_H_
#define GRAPHLOG_TRANSLATE_MAGIC_TC_H_

#include <set>

#include "common/result.h"
#include "common/symbol_table.h"
#include "datalog/ast.h"

namespace graphlog::translate {

/// \brief Applies the rewrite to `prog`. `protected_predicates` (e.g. the
/// distinguished predicates of a query) are never removed even when all
/// their uses were specialized.
Result<datalog::Program> SpecializeBoundClosures(
    const datalog::Program& prog, SymbolTable* syms,
    const std::set<Symbol>& protected_predicates = {});

}  // namespace graphlog::translate

#endif  // GRAPHLOG_TRANSLATE_MAGIC_TC_H_
