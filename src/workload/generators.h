// Synthetic workload generators.
//
// The paper's prototype ran on hand-drawn flight databases, a Smalltalk
// image, and the HAM hypertext server — none of which exist here, so each
// evaluation scenario gets a parameterized generator producing the same
// *kind* of data:
//
//   * Figure 1 / 12 : flight schedule networks (airlines, times),
//   * Figure 2 / 3  : family forests (descendant / father / mother),
//   * Figure 6      : software module call graphs,
//   * Figure 11     : task scheduling DAGs with durations,
//   * [CM89]        : hypertext webs (pages, links, anchors),
//   * generic       : random digraphs, chains, grids, DAGs for the TC and
//                     scaling ablations.
//
// All generators are deterministic in their seed.

#ifndef GRAPHLOG_WORKLOAD_GENERATORS_H_
#define GRAPHLOG_WORKLOAD_GENERATORS_H_

#include <cstdint>
#include <random>

#include "common/status.h"
#include "storage/database.h"

namespace graphlog::workload {

// ---------------------------------------------------------------------------
// Generic digraphs (relation name `edge`, node names n0..n{N-1})

/// \brief Erdős–Rényi style digraph: n nodes, ~m uniformly random edges
/// (no self loops). Facts: edge(ni, nj).
Status RandomDigraph(int n, int m, uint64_t seed, storage::Database* db,
                     const char* relation = "edge");

/// \brief A simple chain n0 -> n1 -> ... -> n{len}: worst case diameter.
Status Chain(int len, storage::Database* db, const char* relation = "edge");

/// \brief Random DAG: edges only from lower to higher node index.
Status RandomDag(int n, int m, uint64_t seed, storage::Database* db,
                 const char* relation = "edge");

/// \brief Complete k-ary tree of the given depth, edges parent -> child.
Status KaryTree(int arity, int depth, storage::Database* db,
                const char* relation = "edge");

// ---------------------------------------------------------------------------
// Figure 1 / Figure 12: flights

/// \brief Parameters for the flight-schedule generator.
struct FlightsOptions {
  int num_cities = 10;
  int num_flights = 40;
  int num_airlines = 3;   ///< also emits per-airline binary relations
  int capitals = 3;       ///< unary capital(city) facts
  uint64_t seed = 1;
};

/// \brief Emits the Figure 1 schema: from(f,c), to(f,c), departure(f,t),
/// arrival(f,t) with arrival > departure, capital(c); plus one binary
/// relation per airline (al0(c1,c2), ...) in the Figure 12 style.
Status Flights(const FlightsOptions& options, storage::Database* db);

/// \brief Loads the exact Figure 1 database of the paper (times in
/// minutes since midnight).
Status Figure1Flights(storage::Database* db);

// ---------------------------------------------------------------------------
// Figures 2/3 and 5: families

/// \brief Parameters for the family-forest generator.
struct FamilyOptions {
  int generations = 4;
  int roots = 2;
  int children_min = 1;
  int children_max = 3;
  /// Fraction of person pairs sharing a friendship edge.
  double friend_prob = 0.05;
  int num_cities = 4;
  uint64_t seed = 7;
};

/// \brief Emits person(p), descendant(ancestor, descendant) [one step],
/// father(f,c), mother(m,c,hospital), friend(a,b), residence(p,city).
Status Family(const FamilyOptions& options, storage::Database* db);

// ---------------------------------------------------------------------------
// Figure 6: software modules

/// \brief Parameters for the call-graph generator.
struct ModulesOptions {
  int num_modules = 8;
  int functions_per_module = 6;
  int num_libraries = 3;
  double local_call_prob = 0.3;
  double extern_call_prob = 0.05;
  double library_prob = 0.15;
  uint64_t seed = 11;
};

/// \brief Emits in-module(f,m), calls-local(f1,f2), calls-extn(f1,f2),
/// in-library(f,l) — the Figure 6 schema, every relation declared even
/// when empty. InvalidArgument on a negative num_modules or a
/// functions_per_module or num_libraries below 1.
Status Modules(const ModulesOptions& options, storage::Database* db);

// ---------------------------------------------------------------------------
// Figure 11: task scheduling

/// \brief Parameters for the scheduling-DAG generator.
struct TasksOptions {
  int num_tasks = 20;
  double edge_prob = 0.2;  ///< probability of affects(i,j) for i < j
  int max_duration = 10;
  uint64_t seed = 13;
};

/// \brief Emits affects(t1,t2) (a DAG), duration(t,d),
/// scheduled-start(t,s) (consistent with the DAG), and delay(t,ds) for one
/// randomly chosen delayed task. InvalidArgument on a num_tasks or
/// max_duration below 1.
Status Tasks(const TasksOptions& options, storage::Database* db);

// ---------------------------------------------------------------------------
// [CM89]: hypertext

/// \brief Parameters for the hypertext-web generator.
struct HypertextOptions {
  int num_pages = 30;
  double link_prob = 0.08;
  int num_authors = 5;
  uint64_t seed = 17;
};

/// \brief Emits link(p1,p2), author(p,a), title-word(p,w) — a small
/// hypertext abstract machine image, every relation declared even when
/// empty. InvalidArgument on a negative num_pages or a num_authors below 1.
Status Hypertext(const HypertextOptions& options, storage::Database* db);

}  // namespace graphlog::workload

#endif  // GRAPHLOG_WORKLOAD_GENERATORS_H_
