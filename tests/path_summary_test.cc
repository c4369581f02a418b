// Tests for path summarization (Section 4), parameterized across the
// along/across aggregate combinations.

#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

#include "aggr/path_summary.h"
#include "storage/database.h"
#include "tests/test_util.h"

namespace graphlog::aggr {
namespace {

using datalog::AggKind;
using storage::Database;
using storage::Relation;
using storage::Tuple;

/// Builds a weighted-edge relation from (from, to, w) triples.
Relation Weighted(Database* db,
                  std::vector<std::tuple<const char*, const char*, int>> es) {
  Relation r(3);
  for (auto& [a, b, w] : es) {
    r.Insert(Tuple{Value::Sym(db->Intern(a)), Value::Sym(db->Intern(b)),
                   Value::Int(w)});
  }
  return r;
}

/// Looks up the summarized value for (from, to); INT_MIN when absent.
int64_t Get(const Relation& result, Database* db, const char* a,
            const char* b) {
  for (const Tuple& t : result.rows()) {
    if (t[0] == Value::Sym(db->Intern(a)) &&
        t[1] == Value::Sym(db->Intern(b))) {
      return t[2].AsInt();
    }
  }
  return INT64_MIN;
}

TEST(PathSummaryTest, ShortestPathSumMin) {
  Database db;
  Relation base = Weighted(
      &db, {{"a", "b", 1}, {"b", "c", 1}, {"a", "c", 5}});
  PathSummaryOptions opts;
  opts.along = AggKind::kSum;
  opts.across = AggKind::kMin;
  ASSERT_OK_AND_ASSIGN(Relation r, PathSummarize(base, opts));
  EXPECT_EQ(Get(r, &db, "a", "c"), 2);  // a->b->c beats direct 5
  EXPECT_EQ(Get(r, &db, "a", "b"), 1);
}

TEST(PathSummaryTest, CriticalPathSumMax) {
  Database db;
  Relation base = Weighted(
      &db, {{"a", "b", 3}, {"b", "d", 5}, {"a", "c", 4}, {"c", "d", 6}});
  PathSummaryOptions opts;
  opts.along = AggKind::kSum;
  opts.across = AggKind::kMax;
  ASSERT_OK_AND_ASSIGN(Relation r, PathSummarize(base, opts));
  EXPECT_EQ(Get(r, &db, "a", "d"), 10);  // via c
}

TEST(PathSummaryTest, HopCountMin) {
  Database db;
  Relation base = Weighted(
      &db, {{"a", "b", 99}, {"b", "c", 99}, {"a", "c", 99}});
  PathSummaryOptions opts;
  opts.along = AggKind::kCount;
  opts.across = AggKind::kMin;
  ASSERT_OK_AND_ASSIGN(Relation r, PathSummarize(base, opts));
  EXPECT_EQ(Get(r, &db, "a", "c"), 1);  // direct edge, ignoring weights
}

TEST(PathSummaryTest, BottleneckMaxMin) {
  // Widest-path: maximize the minimum edge weight along the path.
  Database db;
  Relation base = Weighted(
      &db, {{"a", "b", 10}, {"b", "c", 2}, {"a", "d", 5}, {"d", "c", 5}});
  PathSummaryOptions opts;
  opts.along = AggKind::kMin;   // path value = narrowest edge
  opts.across = AggKind::kMax;  // pick the widest path
  ASSERT_OK_AND_ASSIGN(Relation r, PathSummarize(base, opts));
  EXPECT_EQ(Get(r, &db, "a", "c"), 5);  // via d: min(5,5) beats min(10,2)
}

TEST(PathSummaryTest, MinimaxWithCycleConverges) {
  // Bounded along-operators converge even on cyclic graphs.
  Database db;
  Relation base = Weighted(
      &db, {{"a", "b", 3}, {"b", "a", 7}, {"b", "c", 9}});
  PathSummaryOptions opts;
  opts.along = AggKind::kMax;
  opts.across = AggKind::kMin;
  ASSERT_OK_AND_ASSIGN(Relation r, PathSummarize(base, opts));
  EXPECT_EQ(Get(r, &db, "a", "c"), 9);
  // a -> a around the cycle: max(3, 7) = 7.
  EXPECT_EQ(Get(r, &db, "a", "a"), 7);
}

TEST(PathSummaryTest, SumMaxOnCycleFails) {
  Database db;
  Relation base = Weighted(&db, {{"a", "b", 1}, {"b", "a", 1}});
  PathSummaryOptions opts;
  opts.along = AggKind::kSum;
  opts.across = AggKind::kMax;
  auto r = PathSummarize(base, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCycleInPath);
}

TEST(PathSummaryTest, NegativeCycleUnderMinFails) {
  Database db;
  Relation base = Weighted(&db, {{"a", "b", -2}, {"b", "a", 1}});
  PathSummaryOptions opts;
  opts.along = AggKind::kSum;
  opts.across = AggKind::kMin;
  auto r = PathSummarize(base, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCycleInPath);
}

TEST(PathSummaryTest, PositiveCycleUnderMinIsFine) {
  Database db;
  Relation base = Weighted(&db, {{"a", "b", 2}, {"b", "a", 1}, {"b", "c", 4}});
  PathSummaryOptions opts;
  opts.along = AggKind::kSum;
  opts.across = AggKind::kMin;
  ASSERT_OK_AND_ASSIGN(Relation r, PathSummarize(base, opts));
  EXPECT_EQ(Get(r, &db, "a", "c"), 6);
  EXPECT_EQ(Get(r, &db, "a", "a"), 3);  // around the cycle once
}

TEST(PathSummaryTest, DoubleWeightsWidenResult) {
  Database db;
  Relation base(3);
  base.Insert(Tuple{Value::Sym(db.Intern("a")), Value::Sym(db.Intern("b")),
                    Value::Double(1.5)});
  PathSummaryOptions opts;
  opts.along = AggKind::kSum;
  opts.across = AggKind::kMin;
  ASSERT_OK_AND_ASSIGN(Relation r, PathSummarize(base, opts));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.rows()[0][2].is_double());
}

TEST(PathSummaryTest, AvgRejected) {
  Database db;
  Relation base = Weighted(&db, {{"a", "b", 1}});
  PathSummaryOptions opts;
  opts.along = AggKind::kAvg;
  EXPECT_EQ(PathSummarize(base, opts).status().code(),
            StatusCode::kUnsupported);
}

TEST(PathSummaryTest, AcrossMustBeMinOrMax) {
  Database db;
  Relation base = Weighted(&db, {{"a", "b", 1}});
  PathSummaryOptions opts;
  opts.across = AggKind::kSum;
  EXPECT_EQ(PathSummarize(base, opts).status().code(),
            StatusCode::kUnsupported);
}

TEST(PathSummaryTest, NonNumericWeightRejected) {
  Database db;
  Relation base(3);
  base.Insert(Tuple{Value::Sym(db.Intern("a")), Value::Sym(db.Intern("b")),
                    Value::Sym(db.Intern("oops"))});
  PathSummaryOptions opts;
  EXPECT_EQ(PathSummarize(base, opts).status().code(),
            StatusCode::kTypeError);
}

TEST(PathSummaryTest, EmptyBaseYieldsEmptyResult) {
  Relation base(3);
  ASSERT_OK_AND_ASSIGN(Relation r, PathSummarize(base, {}));
  EXPECT_TRUE(r.empty());
}

// ---------------------------------------------------------------------------
// Differential check of the worklist against the round-based reference.

/// The round-based relaxation PathSummarize used before its worklist: each
/// round rescans every node slot and relaxes every reached node's edges,
/// and a change after n rounds is an improving cycle. Kept as the oracle.
Result<Relation> ReferencePathSummarize(const Relation& base,
                                        const PathSummaryOptions& options) {
  auto extend = [&](double path_value, double w) {
    switch (options.along) {
      case AggKind::kSum:
        return path_value + w;
      case AggKind::kCount:
        return path_value + 1.0;
      case AggKind::kMin:
        return std::min(path_value, w);
      default:
        return std::max(path_value, w);
    }
  };
  auto better = [&](double a, double b) {
    return options.across == AggKind::kMin ? a < b : a > b;
  };
  std::unordered_map<Value, uint32_t, ValueHash> ids;
  std::vector<Value> values;
  struct Edge {
    uint32_t from, to;
    double w;
  };
  std::vector<std::vector<Edge>> out;
  bool any_double = false;
  auto intern = [&](const Value& v) {
    auto [it, inserted] = ids.emplace(v, static_cast<uint32_t>(values.size()));
    if (inserted) {
      values.push_back(v);
      out.emplace_back();
    }
    return it->second;
  };
  for (const Tuple& t : base.rows()) {
    const Value& wv = t[options.weight_column];
    any_double |= options.along != AggKind::kCount && wv.is_double();
    const uint32_t from = intern(t[0]);
    const uint32_t to = intern(t[1]);
    out[from].push_back(Edge{from, to, wv.ToDouble()});
  }
  const size_t n = values.size();
  const bool unbounded_possible =
      options.along == AggKind::kSum || options.along == AggKind::kCount;
  Relation result(3);
  std::vector<double> dist(n);
  std::vector<bool> has(n);
  for (uint32_t s = 0; s < n; ++s) {
    std::fill(has.begin(), has.end(), false);
    for (const Edge& e : out[s]) {
      double v = options.along == AggKind::kCount ? 1.0 : e.w;
      if (!has[e.to] || better(v, dist[e.to])) {
        dist[e.to] = v;
        has[e.to] = true;
      }
    }
    size_t round = 0;
    bool changed = true;
    while (changed) {
      changed = false;
      ++round;
      for (uint32_t u = 0; u < n; ++u) {
        if (!has[u]) continue;
        for (const Edge& e : out[u]) {
          double v = extend(dist[u], e.w);
          if (!has[e.to] || better(v, dist[e.to])) {
            dist[e.to] = v;
            has[e.to] = true;
            changed = true;
          }
        }
      }
      if (changed && unbounded_possible && round > n) {
        return Status::CycleInPath("improving cycle");
      }
    }
    for (uint32_t v = 0; v < n; ++v) {
      if (!has[v]) continue;
      result.Insert(Tuple{values[s], values[v],
                          any_double ? Value::Double(dist[v])
                                     : Value::Int(static_cast<int64_t>(
                                           dist[v]))});
    }
  }
  return result;
}

/// A random weighted graph on `n` nodes: a DAG (edges only go up in node
/// index) or a general digraph whose weights may be negative.
Relation RandomWeighted(Database* db, int n, int m, bool dag, bool doubles,
                        uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> node(0, n - 1);
  std::uniform_int_distribution<int> weight(dag ? 1 : -2, 9);
  Relation r(3);
  for (int k = 0; k < m; ++k) {
    int a = node(rng), b = node(rng);
    if (dag) {
      if (a == b) continue;
      if (a > b) std::swap(a, b);
    }
    const int w = weight(rng);
    r.Insert(Tuple{Value::Sym(db->Intern("n" + std::to_string(a))),
                   Value::Sym(db->Intern("n" + std::to_string(b))),
                   doubles ? Value::Double(w + 0.5) : Value::Int(w)});
  }
  return r;
}

TEST(PathSummaryTest, WorklistMatchesRoundBasedReference) {
  const AggKind alongs[] = {AggKind::kSum, AggKind::kCount, AggKind::kMin,
                            AggKind::kMax};
  const AggKind acrosses[] = {AggKind::kMin, AggKind::kMax};
  int errors = 0, results = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (bool dag : {true, false}) {
      Database db;
      const Relation base = RandomWeighted(&db, 30, dag ? 90 : 45, dag,
                                           /*doubles=*/seed % 3 == 0, seed);
      for (AggKind along : alongs) {
        for (AggKind across : acrosses) {
          PathSummaryOptions opts;
          opts.along = along;
          opts.across = across;
          Result<Relation> got = PathSummarize(base, opts);
          Result<Relation> want = ReferencePathSummarize(base, opts);
          const std::string where = "seed " + std::to_string(seed) +
                                    (dag ? " dag" : " cyclic") + " along " +
                                    std::to_string(static_cast<int>(along)) +
                                    " across " +
                                    std::to_string(static_cast<int>(across));
          ASSERT_EQ(got.ok(), want.ok()) << where;
          if (!want.ok()) {
            EXPECT_EQ(got.status().code(), StatusCode::kCycleInPath) << where;
            ++errors;
            continue;
          }
          ++results;
          // Byte-identical: same rows, values and insertion order.
          EXPECT_EQ(got->rows(), want->rows()) << where;
        }
      }
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(errors, 0);
  EXPECT_GT(results, 0);
}

}  // namespace
}  // namespace graphlog::aggr
