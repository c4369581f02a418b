// Random query generators for differential testing.
//
// Two generators back the repository's property sweeps:
//  * RandomLinearProgram — stratified linear Datalog programs built from
//    safe-by-construction rule templates (chain joins, left/right linear
//    recursion, negation of lower strata). Used to fuzz Algorithm 3.1 and
//    the naive/semi-naive engines against each other.
//  * RandomPathExpr — =-free-at-top path regular expressions over a small
//    label alphabet. Used to fuzz the three RPQ evaluation strategies
//    (NFA product, DFA bitset kernel, Datalog translation) against each
//    other.

#ifndef GRAPHLOG_TESTING_RANDOM_PROGRAMS_H_
#define GRAPHLOG_TESTING_RANDOM_PROGRAMS_H_

#include <random>
#include <string>

#include "common/symbol_table.h"
#include "graphlog/pre.h"

namespace graphlog::testing {

/// \brief Options for RandomLinearProgram.
struct RandomProgramOptions {
  int num_idb_predicates = 4;   ///< p0..p{n-1}, all binary
  double recursion_prob = 0.6;  ///< chance an IDB gets a recursive rule
  double negation_prob = 0.3;   ///< chance a rule negates a lower stratum
  double second_base_prob = 0.5;  ///< chance of a second base rule
};

/// \brief Generates the text of a random stratified linear program over
/// EDB relations e1/2, e2/2 and n1/1. Deterministic in `seed`.
///
/// Guarantees by construction: every rule is safe, at most one recursive
/// subgoal per rule (linear), and negation only reaches strictly lower
/// predicates (stratified).
std::string RandomLinearProgram(const RandomProgramOptions& options,
                                uint64_t seed);

/// \brief Options for RandomPathExpr.
struct RandomPreOptions {
  int max_depth = 4;
  double negation_free = true;  ///< (always true: RPQ fragment)
};

/// \brief Generates a random p.r.e. over labels {p, q} whose top-level
/// expansion has no identity alternative (so all evaluation strategies
/// have identical domains). Deterministic in `seed`.
gl::PathExpr RandomPathExpr(const RandomPreOptions& options, uint64_t seed,
                            SymbolTable* syms);

}  // namespace graphlog::testing

#endif  // GRAPHLOG_TESTING_RANDOM_PROGRAMS_H_
