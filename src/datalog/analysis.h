// Static analysis of Datalog programs.
//
// Implements the machinery the paper relies on:
//  * the predicate dependence graph (Definition 2.6 generalizes this to
//    graphical queries; here it is the classic rule-level version),
//  * strongly connected components (used per-SCC by Algorithm 3.1),
//  * stratification with negation and aggregates,
//  * safety / range restriction,
//  * linearity (Definition 3.2: at most one recursive subgoal per rule) and
//    TC-rule shape recognition (rules r1/r2 of Definition 3.2, generalized
//    with the parameter block W of Definition 2.4 rules (2)-(3)).

#ifndef GRAPHLOG_DATALOG_ANALYSIS_H_
#define GRAPHLOG_DATALOG_ANALYSIS_H_

#include <map>
#include <set>
#include <vector>

#include "common/result.h"
#include "common/symbol_table.h"
#include "datalog/ast.h"

namespace graphlog::datalog {

/// \brief Dependence graph over the predicates of a program.
///
/// There is an edge q -> p when q occurs in the body of a rule with head p.
/// The edge is *negative* when some such occurrence is negated, or when the
/// rule's head carries an aggregate (aggregation stratifies like negation,
/// per Section 4 of the paper).
class DependenceGraph {
 public:
  /// \brief Builds the dependence graph of `prog`.
  static DependenceGraph Build(const Program& prog);

  const std::vector<Symbol>& predicates() const { return predicates_; }

  /// \brief Successors of `p`: predicates whose rules use `p`.
  const std::vector<Symbol>& SuccessorsOf(Symbol p) const;

  /// \brief Predecessors of `p`: predicates used by the rules of `p`.
  const std::vector<Symbol>& PredecessorsOf(Symbol p) const;

  bool HasEdge(Symbol from, Symbol to) const;
  bool HasNegativeEdge(Symbol from, Symbol to) const;

  /// \brief True when the graph has no directed cycle.
  bool IsAcyclic() const;

  /// \brief Strongly connected components in Tarjan's order: reverse
  /// topological order of the condensation, so a component is listed
  /// before every component it reads (edges run from later components to
  /// earlier ones). Walk the list backwards for an evaluation order.
  std::vector<std::vector<Symbol>> StronglyConnectedComponents() const;

  /// \brief Component index of each predicate, aligned with
  /// StronglyConnectedComponents().
  std::map<Symbol, int> ComponentIndex() const;

 private:
  std::vector<Symbol> predicates_;
  std::map<Symbol, std::vector<Symbol>> succ_;
  std::map<Symbol, std::vector<Symbol>> pred_;
  std::set<std::pair<Symbol, Symbol>> edges_;
  std::set<std::pair<Symbol, Symbol>> negative_edges_;
};

/// \brief A stratification: stratum number per IDB predicate, and rules
/// grouped by stratum in evaluation order.
struct Stratification {
  std::map<Symbol, int> stratum_of;          // IDB predicates only
  std::vector<std::vector<int>> rule_groups;  // rule indices per stratum
  int num_strata = 0;
};

/// \brief Computes a stratification of `prog`.
///
/// Fails with kUnstratifiable when the program recurses through negation or
/// through aggregation. EDB predicates implicitly live in stratum 0.
Result<Stratification> Stratify(const Program& prog, const SymbolTable& syms);

/// \brief Checks safety / range restriction of every rule.
///
/// A rule is safe when every variable occurring in its head, in a negated
/// subgoal, in a comparison, or in an arithmetic expression is *limited*:
/// bound by a positive relational subgoal, by equality with a limited term,
/// or as the target of an assignment whose inputs are limited.
Status CheckSafety(const Program& prog, const SymbolTable& syms);

/// \brief Checks that each predicate is used with a single arity everywhere.
Status CheckArities(const Program& prog, const SymbolTable& syms);

/// \brief Convenience: arity of every predicate in the program (first use
/// wins; call CheckArities to validate consistency).
std::map<Symbol, size_t> PredicateArities(const Program& prog);

/// \brief True when every rule of `prog` has at most one recursive subgoal
/// (a positive or negative body predicate in the same SCC as the rule's
/// head) — Definition 3.2's linear programs.
bool IsLinear(const Program& prog);

/// \brief Returns OK when linear; otherwise kNotLinear naming an offending
/// rule.
Status CheckLinear(const Program& prog, const SymbolTable& syms);

/// \brief Decides whether `p` is recursive in `prog` (depends on itself
/// directly or transitively).
bool IsRecursivePredicate(const Program& prog, Symbol p);

/// \brief Recognizes the generalized TC-rule pair for predicate `p`:
///
///   p(X..., Y..., W...) :- q(X..., Y..., W...).
///   p(X..., Y..., W...) :- q(X..., Z..., W...), p(Z..., Y..., W...).
///
/// with |X|=|Y|=|Z|=n, |W|=w (possibly 0), all variables distinct, and q
/// not recursive with p. Returns the pair (n, w) block sizes.
struct TcShape {
  Symbol base = kNoSymbol;  ///< the q predicate
  size_t n = 0;             ///< closure block width
  size_t w = 0;             ///< parameter block width
};
Result<TcShape> MatchTcRules(const Program& prog, Symbol p);

/// \brief True when every recursive predicate of `prog` is defined by
/// exactly a generalized TC-rule pair — the STC-DATALOG target fragment of
/// Algorithm 3.1.
bool IsTcProgram(const Program& prog);

}  // namespace graphlog::datalog

#endif  // GRAPHLOG_DATALOG_ANALYSIS_H_
