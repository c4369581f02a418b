// Shared helpers for the test suite.

#ifndef GRAPHLOG_TESTS_TEST_UTIL_H_
#define GRAPHLOG_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "eval/engine.h"
#include "storage/database.h"

#define ASSERT_OK(expr)                                         \
  do {                                                          \
    ::graphlog::Status _st = (expr);                            \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                    \
  } while (0)

#define EXPECT_OK(expr)                                         \
  do {                                                          \
    ::graphlog::Status _st = (expr);                            \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                    \
  } while (0)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, rexpr)              \
  auto tmp = (rexpr);                                           \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();             \
  lhs = std::move(tmp).ValueOrDie()

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                        \
  ASSERT_OK_AND_ASSIGN_IMPL(                                    \
      GRAPHLOG_ASSIGN_OR_RETURN_NAME(_assert_or_, __LINE__), lhs, rexpr)

namespace graphlog::testutil {

/// \brief Renders a relation as a sorted set of "a,b,c" strings — a
/// convenient, order-insensitive comparison form.
inline std::set<std::string> RelationSet(const storage::Database& db,
                                         std::string_view name) {
  std::set<std::string> out;
  const storage::Relation* rel = db.Find(name);
  if (rel == nullptr) return out;
  for (const auto& row : rel->rows()) {
    std::string s;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) s += ",";
      s += row[i].ToString(db.symbols());
    }
    out.insert(s);
  }
  return out;
}

/// \brief The positive closure of binary `edges` by the engine's plain
/// fixpoint: Strategy::kNaive over the right-linear TC pair, which the
/// TC kernel never serves. The TC oracle.
inline Result<storage::Relation> NaiveClosure(
    const storage::Relation& edges) {
  storage::Database db;
  db.relations().emplace(db.Intern("edge"), edges);
  eval::EvalOptions opts;
  opts.strategy = eval::Strategy::kNaive;
  GRAPHLOG_RETURN_NOT_OK(eval::EvaluateText("tc(X, Y) :- edge(X, Y).\n"
                                            "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n",
                                            &db, opts)
                             .status());
  return *db.Find("tc");
}

/// \brief Number of tuples in a relation (0 when absent).
inline size_t RelationSize(const storage::Database& db,
                           std::string_view name) {
  const storage::Relation* rel = db.Find(name);
  return rel == nullptr ? 0 : rel->size();
}

}  // namespace graphlog::testutil

#endif  // GRAPHLOG_TESTS_TEST_UTIL_H_
