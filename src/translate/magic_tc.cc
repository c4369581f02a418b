#include "translate/magic_tc.h"

#include <map>
#include <vector>

#include "datalog/analysis.h"

namespace graphlog::translate {

using datalog::Atom;
using datalog::HeadTerm;
using datalog::Literal;
using datalog::MatchTcRules;
using datalog::Program;
using datalog::Rule;
using datalog::TcShape;
using datalog::Term;

namespace {

/// A specialization target: one closure predicate seeded by one constant
/// block on one side.
struct Seed {
  Symbol closure = kNoSymbol;
  bool forward = true;            // true: X-block constant; false: Y-block
  std::vector<Value> constants;   // the bound block, length n

  bool operator<(const Seed& o) const {
    if (closure != o.closure) return closure < o.closure;
    if (forward != o.forward) return forward < o.forward;
    return std::lexicographical_compare(
        constants.begin(), constants.end(), o.constants.begin(),
        o.constants.end(),
        [](const Value& a, const Value& b) { return a < b; });
  }
};

/// True when args[lo, lo+n) are all constants; collects them.
bool ConstantBlock(const std::vector<Term>& args, size_t lo, size_t n,
                   std::vector<Value>* out) {
  out->clear();
  for (size_t i = lo; i < lo + n; ++i) {
    if (!args[i].is_constant()) return false;
    out->push_back(args[i].value());
  }
  return true;
}

std::string SeedName(const Seed& seed, const SymbolTable& syms) {
  std::string name = syms.name(seed.closure);
  name += seed.forward ? "-from" : "-to";
  for (const Value& v : seed.constants) {
    name += "-" + v.ToString(syms);
  }
  return name;
}

}  // namespace

Result<Program> SpecializeBoundClosures(
    const Program& prog, SymbolTable* syms,
    const std::set<Symbol>& protected_predicates) {
  // 1. Identify TC-shaped predicates and their shapes.
  std::map<Symbol, TcShape> shapes;
  for (Symbol p : prog.HeadPredicates()) {
    auto shape = MatchTcRules(prog, p);
    if (shape.ok()) shapes.emplace(p, *shape);
  }

  // 2. Scan uses. A closure qualifies when every positive use binds the
  // same side with constants (per use; different constants make distinct
  // seeds) and it is never used negated or as a base of another closure's
  // rules... (uses inside its own TC rules do not count).
  std::map<Symbol, std::vector<const Literal*>> uses;
  std::map<Symbol, bool> disqualified;
  for (const Rule& r : prog.rules) {
    bool is_tc_rule_of_head =
        shapes.count(r.head.predicate) > 0;  // its own TC rules
    for (const Literal& l : r.body) {
      if (!l.is_relational()) continue;
      auto it = shapes.find(l.atom.predicate);
      if (it == shapes.end()) continue;
      if (is_tc_rule_of_head && l.atom.predicate == r.head.predicate) {
        continue;  // the recursive self-use inside the TC pair
      }
      if (l.is_negated_atom()) {
        disqualified[l.atom.predicate] = true;
        continue;
      }
      uses[l.atom.predicate].push_back(&l);
    }
  }

  std::map<const Literal*, Seed> plan;  // use -> seed
  std::set<Symbol> fully_specialized;
  for (const auto& [closure, shape] : shapes) {
    if (disqualified[closure]) continue;
    auto it = uses.find(closure);
    if (it == uses.end() || it->second.empty()) continue;
    bool all = true;
    std::map<const Literal*, Seed> local;
    for (const Literal* l : it->second) {
      Seed seed;
      seed.closure = closure;
      std::vector<Value> block;
      if (ConstantBlock(l->atom.args, 0, shape.n, &block)) {
        seed.forward = true;
        seed.constants = std::move(block);
      } else if (ConstantBlock(l->atom.args, shape.n, shape.n, &block)) {
        seed.forward = false;
        seed.constants = std::move(block);
      } else {
        all = false;
        break;
      }
      local.emplace(l, std::move(seed));
    }
    if (!all) continue;
    for (auto& [l, seed] : local) plan.emplace(l, std::move(seed));
    fully_specialized.insert(closure);
  }

  if (plan.empty()) {
    return prog;  // nothing to do
  }

  // 3. Emit the rewritten program.
  Program out;
  std::map<Seed, Symbol> seed_preds;
  auto seed_pred = [&](const Seed& seed) {
    auto it = seed_preds.find(seed);
    if (it != seed_preds.end()) return it->second;
    Symbol s = syms->Fresh(SeedName(seed, *syms));
    seed_preds.emplace(seed, s);
    return s;
  };

  for (const Rule& r : prog.rules) {
    // Drop the TC rule pair of fully specialized, unprotected closures.
    if (fully_specialized.count(r.head.predicate) > 0 &&
        protected_predicates.count(r.head.predicate) == 0) {
      continue;
    }
    Rule nr;
    nr.head = r.head;
    for (const Literal& l : r.body) {
      auto it = plan.find(&l);
      if (it == plan.end()) {
        nr.body.push_back(l);
        continue;
      }
      const Seed& seed = it->second;
      const TcShape& shape = shapes.at(seed.closure);
      Atom a;
      a.predicate = seed_pred(seed);
      // Free block + parameter block keep their original terms.
      size_t free_lo = seed.forward ? shape.n : 0;
      for (size_t i = free_lo; i < free_lo + shape.n; ++i) {
        a.args.push_back(l.atom.args[i]);
      }
      for (size_t i = 2 * shape.n; i < l.atom.args.size(); ++i) {
        a.args.push_back(l.atom.args[i]);
      }
      nr.body.push_back(Literal::Positive(std::move(a)));
    }
    out.Add(std::move(nr));
  }

  // 4. Define the seeded predicates.
  for (const auto& [seed, pred] : seed_preds) {
    const TcShape& shape = shapes.at(seed.closure);
    auto vars = [&](const char* base, size_t count) {
      std::vector<Term> v;
      for (size_t i = 0; i < count; ++i) {
        v.push_back(Term::Var(
            syms->Fresh(std::string("_") + base + std::to_string(i))));
      }
      return v;
    };
    std::vector<Term> free = vars("F", shape.n), mid = vars("M", shape.n),
                      params = vars("P", shape.w);
    std::vector<Term> cblock;
    for (const Value& v : seed.constants) cblock.push_back(Term::Const(v));

    auto base_atom = [&](const std::vector<Term>& x,
                         const std::vector<Term>& y) {
      Atom a;
      a.predicate = shape.base;
      a.args = x;
      a.args.insert(a.args.end(), y.begin(), y.end());
      a.args.insert(a.args.end(), params.begin(), params.end());
      return a;
    };
    auto seeded_atom = [&](const std::vector<Term>& x) {
      Atom a;
      a.predicate = pred;
      a.args = x;
      a.args.insert(a.args.end(), params.begin(), params.end());
      return a;
    };
    auto head_of = [&](const std::vector<Term>& x) {
      datalog::Head h;
      h.predicate = pred;
      for (const Term& t : x) h.args.push_back(HeadTerm::Plain(t));
      for (const Term& t : params) h.args.push_back(HeadTerm::Plain(t));
      return h;
    };

    Rule base, step;
    if (seed.forward) {
      // t@c(Y, P) :- q(c, Y, P).   t@c(Y, P) :- t@c(Z, P), q(Z, Y, P).
      base.head = head_of(free);
      base.body.push_back(Literal::Positive(base_atom(cblock, free)));
      step.head = head_of(free);
      step.body.push_back(Literal::Positive(seeded_atom(mid)));
      step.body.push_back(Literal::Positive(base_atom(mid, free)));
    } else {
      // t@..c(X, P) :- q(X, c, P). t@..c(X, P) :- q(X, Z, P), t@..c(Z, P).
      base.head = head_of(free);
      base.body.push_back(Literal::Positive(base_atom(free, cblock)));
      step.head = head_of(free);
      step.body.push_back(Literal::Positive(base_atom(free, mid)));
      step.body.push_back(Literal::Positive(seeded_atom(mid)));
    }
    out.Add(std::move(base));
    out.Add(std::move(step));
  }
  return out;
}

}  // namespace graphlog::translate
