// DFA pipeline for regular path queries.
//
// The NFA product search re-computes epsilon closures and tracks one
// product state per (node, nfa-state). Determinizing (subset construction)
// and minimizing (Moore partition refinement) the automaton first yields a
// table-driven automaton with fewer product states and no epsilon work,
// which EvalRpqBitset (rpq/rpq_eval.h) evaluates with bitset frontiers.
//
// Restriction: the DFA alphabet is the set of (predicate, direction)
// pairs, so expressions whose atoms carry attribute filters are rejected
// (overlapping filtered labels would make the "deterministic" table
// ambiguous on a single data edge). Plain-label RPQs — the classic case —
// are exactly what this supports.

#ifndef GRAPHLOG_RPQ_DFA_H_
#define GRAPHLOG_RPQ_DFA_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/result.h"
#include "rpq/nfa.h"

namespace graphlog::rpq {

/// \brief One DFA alphabet symbol: an edge label with a direction.
struct DfaLabel {
  Symbol predicate = kNoSymbol;
  bool inverted = false;

  bool operator<(const DfaLabel& o) const {
    return predicate != o.predicate ? predicate < o.predicate
                                    : inverted < o.inverted;
  }
  bool operator==(const DfaLabel& o) const {
    return predicate == o.predicate && inverted == o.inverted;
  }
};

/// \brief A deterministic automaton over edge labels.
class Dfa {
 public:
  /// \brief Subset construction from an NFA. Fails with kUnsupported when
  /// the NFA has attribute filters (see header comment).
  static Result<Dfa> Determinize(const Nfa& nfa);

  /// \brief Moore partition refinement; returns an equivalent DFA with a
  /// minimal number of states.
  Dfa Minimize() const;

  uint32_t start() const { return start_; }
  bool IsAccepting(uint32_t state) const { return accepting_[state]; }
  size_t num_states() const { return accepting_.size(); }
  const std::vector<DfaLabel>& alphabet() const { return alphabet_; }

  /// \brief Next state on `label_index` (index into alphabet()), or
  /// kNoTransition.
  static constexpr uint32_t kNoTransition = static_cast<uint32_t>(-1);
  uint32_t Next(uint32_t state, size_t label_index) const {
    return table_[state * alphabet_.size() + label_index];
  }

  /// \brief Index of a label in the alphabet, or npos.
  size_t LabelIndex(const DfaLabel& label) const {
    for (size_t i = 0; i < alphabet_.size(); ++i) {
      if (alphabet_[i] == label) return i;
    }
    return static_cast<size_t>(-1);
  }

 private:
  uint32_t start_ = 0;
  std::vector<DfaLabel> alphabet_;
  std::vector<bool> accepting_;
  std::vector<uint32_t> table_;  // num_states x alphabet, kNoTransition holes
};

}  // namespace graphlog::rpq

#endif  // GRAPHLOG_RPQ_DFA_H_
