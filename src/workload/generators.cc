#include "workload/generators.h"

#include <algorithm>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

namespace graphlog::workload {

using storage::Database;
using storage::Tuple;

namespace {

std::string N(const char* prefix, int i) {
  return std::string(prefix) + std::to_string(i);
}

Value Sym(Database* db, const std::string& s) {
  return Value::Sym(db->Intern(s));
}

/// InvalidArgument when `count` is below `min`: no count may be negative
/// (num_tasks sizes a vector), and a zero one must not divide or bound
/// uniform_int_distribution(0, count - 1).
Status CheckCount(const char* name, int count, int min) {
  if (count >= min) return Status::OK();
  return Status::InvalidArgument(std::string(name) + " must be at least " +
                                 std::to_string(min) + ", got " +
                                 std::to_string(count));
}

/// Declares every binary relation in `names`, so a generator's schema
/// exists even when a small input emits no facts for some of it.
Status DeclareBinary(Database* db, std::initializer_list<const char*> names) {
  for (const char* name : names) {
    GRAPHLOG_RETURN_NOT_OK(db->Declare(name, 2).status());
  }
  return Status::OK();
}

}  // namespace

Status RandomDigraph(int n, int m, uint64_t seed, Database* db,
                     const char* relation) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, n - 1);
  std::set<std::pair<int, int>> used;
  int emitted = 0, attempts = 0;
  while (emitted < m && attempts < m * 20) {
    ++attempts;
    int a = pick(rng), b = pick(rng);
    if (a == b) continue;
    if (!used.insert({a, b}).second) continue;
    GRAPHLOG_RETURN_NOT_OK(
        db->AddFact(relation, Tuple{Sym(db, N("n", a)), Sym(db, N("n", b))}));
    ++emitted;
  }
  return Status::OK();
}

Status Chain(int len, Database* db, const char* relation) {
  for (int i = 0; i < len; ++i) {
    GRAPHLOG_RETURN_NOT_OK(db->AddFact(
        relation, Tuple{Sym(db, N("n", i)), Sym(db, N("n", i + 1))}));
  }
  return Status::OK();
}

Status RandomDag(int n, int m, uint64_t seed, Database* db,
                 const char* relation) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, n - 1);
  std::set<std::pair<int, int>> used;
  int emitted = 0, attempts = 0;
  while (emitted < m && attempts < m * 20) {
    ++attempts;
    int a = pick(rng), b = pick(rng);
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (!used.insert({a, b}).second) continue;
    GRAPHLOG_RETURN_NOT_OK(
        db->AddFact(relation, Tuple{Sym(db, N("n", a)), Sym(db, N("n", b))}));
    ++emitted;
  }
  return Status::OK();
}

Status KaryTree(int arity, int depth, Database* db, const char* relation) {
  // Nodes are numbered heap-style: children of i are i*arity+1 ... +arity.
  int total = 1;
  int level = 1;
  for (int d = 0; d < depth; ++d) {
    level *= arity;
    total += level;
  }
  for (int i = 0; (i * arity + 1) < total; ++i) {
    for (int k = 1; k <= arity; ++k) {
      int child = i * arity + k;
      if (child >= total) break;
      GRAPHLOG_RETURN_NOT_OK(db->AddFact(
          relation, Tuple{Sym(db, N("n", i)), Sym(db, N("n", child))}));
    }
  }
  return Status::OK();
}

Status Flights(const FlightsOptions& options, Database* db) {
  std::mt19937_64 rng(options.seed);
  std::uniform_int_distribution<int> city(0, options.num_cities - 1);
  std::uniform_int_distribution<int> dep(0, 22 * 60);
  std::uniform_int_distribution<int> dur(45, 10 * 60);
  std::uniform_int_distribution<int> airline(0, options.num_airlines - 1);

  for (int c = 0; c < options.capitals && c < options.num_cities; ++c) {
    GRAPHLOG_RETURN_NOT_OK(
        db->AddFact("capital", Tuple{Sym(db, N("city", c))}));
  }
  for (int f = 0; f < options.num_flights; ++f) {
    int from = city(rng);
    int to = city(rng);
    while (to == from) to = city(rng);
    int d = dep(rng);
    int a = d + dur(rng);
    Value fv = Sym(db, N("f", f));
    GRAPHLOG_RETURN_NOT_OK(
        db->AddFact("from", Tuple{fv, Sym(db, N("city", from))}));
    GRAPHLOG_RETURN_NOT_OK(
        db->AddFact("to", Tuple{fv, Sym(db, N("city", to))}));
    GRAPHLOG_RETURN_NOT_OK(
        db->AddFact("departure", Tuple{fv, Value::Int(d)}));
    GRAPHLOG_RETURN_NOT_OK(db->AddFact("arrival", Tuple{fv, Value::Int(a)}));
    // Figure 12 style: one binary city-to-city relation per airline.
    GRAPHLOG_RETURN_NOT_OK(
        db->AddFact(N("al", airline(rng)),
                    Tuple{Sym(db, N("city", from)), Sym(db, N("city", to))}));
  }
  return Status::OK();
}

Status Figure1Flights(Database* db) {
  // The database drawn in Figure 1 of the paper. Cities and flight
  // numbers are as shown; times are minutes since midnight.
  struct F {
    int num;
    const char* from;
    const char* to;
    int dep;
    int arr;
  };
  // Times as printed in the figure (24h clock).
  const F flights[] = {
      {106, "toronto", "ottawa", 21 * 60 + 45, 23 * 60 + 15},
      {109, "ottawa", "toronto", 7 * 60 + 30, 9 * 60 + 0},
      {132, "toronto", "montreal", 12 * 60 + 0, 13 * 60 + 10},
      {143, "montreal", "toronto", 15 * 60 + 0, 16 * 60 + 10},
      {156, "ottawa", "montreal", 10 * 60 + 0, 10 * 60 + 40},
      {158, "montreal", "ottawa", 18 * 60 + 0, 18 * 60 + 40},
  };
  for (const F& f : flights) {
    Value fv = Value::Int(f.num);
    GRAPHLOG_RETURN_NOT_OK(db->AddFact("from", Tuple{fv, Sym(db, f.from)}));
    GRAPHLOG_RETURN_NOT_OK(db->AddFact("to", Tuple{fv, Sym(db, f.to)}));
    GRAPHLOG_RETURN_NOT_OK(
        db->AddFact("departure", Tuple{fv, Value::Int(f.dep)}));
    GRAPHLOG_RETURN_NOT_OK(
        db->AddFact("arrival", Tuple{fv, Value::Int(f.arr)}));
  }
  GRAPHLOG_RETURN_NOT_OK(db->AddFact("capital", Tuple{Sym(db, "ottawa")}));
  return Status::OK();
}

Status Family(const FamilyOptions& options, Database* db) {
  std::mt19937_64 rng(options.seed);
  std::uniform_int_distribution<int> nchildren(options.children_min,
                                               options.children_max);
  std::uniform_int_distribution<int> city(0, options.num_cities - 1);
  std::uniform_int_distribution<int> hospital(0, 2);
  std::bernoulli_distribution coin(0.5);

  std::vector<std::string> current;
  std::vector<std::string> all;
  int counter = 0;
  for (int r = 0; r < options.roots; ++r) {
    current.push_back(N("p", counter++));
  }
  all = current;
  for (int g = 1; g < options.generations; ++g) {
    std::vector<std::string> next;
    for (const std::string& parent : current) {
      int k = nchildren(rng);
      for (int c = 0; c < k; ++c) {
        std::string child = N("p", counter++);
        GRAPHLOG_RETURN_NOT_OK(db->AddSymFact(
            "descendant", {parent, child}));
        if (coin(rng)) {
          GRAPHLOG_RETURN_NOT_OK(db->AddSymFact("father", {parent, child}));
        } else {
          GRAPHLOG_RETURN_NOT_OK(db->AddSymFact(
              "mother", {parent, child, N("hosp", hospital(rng))}));
        }
        next.push_back(child);
        all.push_back(child);
      }
    }
    current = std::move(next);
  }
  for (const std::string& p : all) {
    GRAPHLOG_RETURN_NOT_OK(db->AddSymFact("person", {p}));
    GRAPHLOG_RETURN_NOT_OK(
        db->AddSymFact("residence", {p, N("city", city(rng))}));
  }
  std::bernoulli_distribution friendly(options.friend_prob);
  for (const std::string& a : all) {
    for (const std::string& b : all) {
      if (a != b && friendly(rng)) {
        GRAPHLOG_RETURN_NOT_OK(db->AddSymFact("friend", {a, b}));
      }
    }
  }
  return Status::OK();
}

Status Modules(const ModulesOptions& options, Database* db) {
  GRAPHLOG_RETURN_NOT_OK(CheckCount("num_modules", options.num_modules, 0));
  GRAPHLOG_RETURN_NOT_OK(CheckCount("functions_per_module",
                                    options.functions_per_module, 1));
  GRAPHLOG_RETURN_NOT_OK(
      CheckCount("num_libraries", options.num_libraries, 1));
  std::mt19937_64 rng(options.seed);
  std::bernoulli_distribution local(options.local_call_prob);
  std::bernoulli_distribution extn(options.extern_call_prob);
  std::bernoulli_distribution lib(options.library_prob);
  std::uniform_int_distribution<int> library(0, options.num_libraries - 1);

  int nf = options.num_modules * options.functions_per_module;
  auto module_of = [&](int f) { return f / options.functions_per_module; };
  for (int f = 0; f < nf; ++f) {
    GRAPHLOG_RETURN_NOT_OK(db->AddSymFact(
        "in-module", {N("fn", f), N("mod", module_of(f))}));
    if (lib(rng)) {
      GRAPHLOG_RETURN_NOT_OK(db->AddSymFact(
          "in-library", {N("fn", f), N("lib", library(rng))}));
    }
  }
  // Make lib0 the async-io library alias for examples.
  for (int a = 0; a < nf; ++a) {
    for (int b = 0; b < nf; ++b) {
      if (a == b) continue;
      if (module_of(a) == module_of(b)) {
        if (local(rng)) {
          GRAPHLOG_RETURN_NOT_OK(
              db->AddSymFact("calls-local", {N("fn", a), N("fn", b)}));
        }
      } else if (extn(rng)) {
        GRAPHLOG_RETURN_NOT_OK(
            db->AddSymFact("calls-extn", {N("fn", a), N("fn", b)}));
      }
    }
  }
  return DeclareBinary(
      db, {"in-module", "in-library", "calls-local", "calls-extn"});
}

Status Tasks(const TasksOptions& options, Database* db) {
  GRAPHLOG_RETURN_NOT_OK(CheckCount("num_tasks", options.num_tasks, 1));
  GRAPHLOG_RETURN_NOT_OK(CheckCount("max_duration", options.max_duration, 1));
  std::mt19937_64 rng(options.seed);
  std::bernoulli_distribution edge(options.edge_prob);
  std::uniform_int_distribution<int> dur(1, options.max_duration);

  std::vector<int> duration(options.num_tasks);
  for (int t = 0; t < options.num_tasks; ++t) {
    duration[t] = dur(rng);
    GRAPHLOG_RETURN_NOT_OK(db->AddFact(
        "duration", Tuple{Sym(db, N("t", t)), Value::Int(duration[t])}));
  }
  // DAG edges i -> j for i < j; scheduled starts consistent with the DAG.
  std::vector<int> start(options.num_tasks, 0);
  for (int i = 0; i < options.num_tasks; ++i) {
    for (int j = i + 1; j < options.num_tasks; ++j) {
      if (!edge(rng)) continue;
      GRAPHLOG_RETURN_NOT_OK(db->AddFact(
          "affects", Tuple{Sym(db, N("t", i)), Sym(db, N("t", j))}));
      start[j] = std::max(start[j], start[i] + duration[i]);
    }
  }
  for (int t = 0; t < options.num_tasks; ++t) {
    GRAPHLOG_RETURN_NOT_OK(db->AddFact(
        "scheduled-start", Tuple{Sym(db, N("t", t)), Value::Int(start[t])}));
  }
  // One delayed task.
  std::uniform_int_distribution<int> pick(0, options.num_tasks - 1);
  GRAPHLOG_RETURN_NOT_OK(db->AddFact(
      "delay", Tuple{Sym(db, N("t", pick(rng))), Value::Int(5)}));
  return Status::OK();
}

Status Hypertext(const HypertextOptions& options, Database* db) {
  GRAPHLOG_RETURN_NOT_OK(CheckCount("num_pages", options.num_pages, 0));
  GRAPHLOG_RETURN_NOT_OK(CheckCount("num_authors", options.num_authors, 1));
  std::mt19937_64 rng(options.seed);
  std::bernoulli_distribution link(options.link_prob);
  std::uniform_int_distribution<int> author(0, options.num_authors - 1);
  const char* words[] = {"graph",  "query",   "recursion", "visual",
                         "logic",  "closure", "hypertext", "path"};
  std::uniform_int_distribution<int> word(0, 7);

  for (int p = 0; p < options.num_pages; ++p) {
    GRAPHLOG_RETURN_NOT_OK(
        db->AddSymFact("author", {N("page", p), N("author", author(rng))}));
    GRAPHLOG_RETURN_NOT_OK(
        db->AddSymFact("title-word", {N("page", p), words[word(rng)]}));
  }
  for (int a = 0; a < options.num_pages; ++a) {
    for (int b = 0; b < options.num_pages; ++b) {
      if (a != b && link(rng)) {
        GRAPHLOG_RETURN_NOT_OK(
            db->AddSymFact("link", {N("page", a), N("page", b)}));
      }
    }
  }
  return DeclareBinary(db, {"author", "title-word", "link"});
}

}  // namespace graphlog::workload
