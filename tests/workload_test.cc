// Tests for the workload generators: determinism and schema shape.

#include <gtest/gtest.h>

#include "storage/database.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace graphlog::workload {
namespace {

using storage::Database;
using testutil::RelationSize;

TEST(GeneratorsTest, RandomDigraphDeterministic) {
  Database a, b;
  ASSERT_OK(RandomDigraph(20, 50, 99, &a));
  ASSERT_OK(RandomDigraph(20, 50, 99, &b));
  EXPECT_EQ(a.RelationToString(a.Intern("edge")),
            b.RelationToString(b.Intern("edge")));
  EXPECT_EQ(RelationSize(a, "edge"), 50u);
}

TEST(GeneratorsTest, RandomDigraphSeedMatters) {
  Database a, b;
  ASSERT_OK(RandomDigraph(20, 50, 1, &a));
  ASSERT_OK(RandomDigraph(20, 50, 2, &b));
  EXPECT_NE(a.RelationToString(a.Intern("edge")),
            b.RelationToString(b.Intern("edge")));
}

TEST(GeneratorsTest, ChainShape) {
  Database db;
  ASSERT_OK(Chain(10, &db));
  EXPECT_EQ(RelationSize(db, "edge"), 10u);
}

TEST(GeneratorsTest, DagHasNoCycles) {
  Database db;
  ASSERT_OK(RandomDag(15, 40, 3, &db));
  // Verify topological: every edge goes from a lower to a higher index.
  const auto* rel = db.Find("edge");
  ASSERT_NE(rel, nullptr);
  for (const auto& t : rel->rows()) {
    int a = std::stoi(db.symbols().name(t[0].AsSymbol()).substr(1));
    int b = std::stoi(db.symbols().name(t[1].AsSymbol()).substr(1));
    EXPECT_LT(a, b);
  }
}

TEST(GeneratorsTest, KaryTreeSize) {
  Database db;
  ASSERT_OK(KaryTree(2, 3, &db));
  // Complete binary tree of depth 3: 15 nodes, 14 edges.
  EXPECT_EQ(RelationSize(db, "edge"), 14u);
}

TEST(GeneratorsTest, FlightsSchema) {
  Database db;
  FlightsOptions opts;
  opts.num_flights = 25;
  ASSERT_OK(Flights(opts, &db));
  EXPECT_EQ(RelationSize(db, "from"), 25u);
  EXPECT_EQ(RelationSize(db, "to"), 25u);
  EXPECT_EQ(RelationSize(db, "departure"), 25u);
  EXPECT_EQ(RelationSize(db, "arrival"), 25u);
  EXPECT_EQ(RelationSize(db, "capital"), 3u);
  // Arrival strictly after departure for every flight.
  const auto* dep = db.Find("departure");
  const auto* arr = db.Find("arrival");
  for (const auto& d : dep->rows()) {
    for (uint32_t i : arr->Probe({0}, {d[0]})) {
      EXPECT_GT(arr->row(i)[1].AsInt(), d[1].AsInt());
    }
  }
}

TEST(GeneratorsTest, Figure1DatabaseIsThePapersFigure) {
  Database db;
  ASSERT_OK(Figure1Flights(&db));
  EXPECT_EQ(RelationSize(db, "from"), 6u);
  // Flight 106 leaves Toronto at 21:45.
  const auto* dep = db.Find("departure");
  bool found = false;
  for (const auto& t : dep->rows()) {
    if (t[0] == Value::Int(106)) {
      EXPECT_EQ(t[1], Value::Int(21 * 60 + 45));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(GeneratorsTest, FamilySchema) {
  Database db;
  FamilyOptions opts;
  ASSERT_OK(Family(opts, &db));
  EXPECT_GT(RelationSize(db, "person"), 0u);
  EXPECT_GT(RelationSize(db, "descendant"), 0u);
  EXPECT_GT(RelationSize(db, "residence"), 0u);
  // Every descendant edge is either a father or a mother edge.
  size_t f = RelationSize(db, "father");
  size_t m = RelationSize(db, "mother");
  EXPECT_EQ(f + m, RelationSize(db, "descendant"));
  // mother has the hospital attribute.
  if (m > 0) {
    EXPECT_EQ(db.Find("mother")->arity(), 3u);
  }
}

TEST(GeneratorsTest, ModulesSchema) {
  Database db;
  ModulesOptions opts;
  ASSERT_OK(Modules(opts, &db));
  EXPECT_EQ(RelationSize(db, "in-module"),
            static_cast<size_t>(opts.num_modules *
                                opts.functions_per_module));
  EXPECT_GT(RelationSize(db, "calls-local"), 0u);
  EXPECT_GT(RelationSize(db, "calls-extn"), 0u);

  // Too few modules to emit every relation: the schema is declared
  // anyway, empty where no fact was drawn.
  for (int modules : {0, 1}) {
    Database small;
    opts.num_modules = modules;
    ASSERT_OK(Modules(opts, &small));
    for (const char* r :
         {"in-module", "in-library", "calls-local", "calls-extn"}) {
      EXPECT_NE(small.Find(r), nullptr) << modules << " modules: " << r;
    }
    EXPECT_EQ(RelationSize(small, "calls-extn"), 0u);
  }
}

TEST(GeneratorsTest, TasksFormDagWithConsistentStarts) {
  Database db;
  TasksOptions opts;
  ASSERT_OK(Tasks(opts, &db));
  EXPECT_EQ(RelationSize(db, "duration"),
            static_cast<size_t>(opts.num_tasks));
  EXPECT_EQ(RelationSize(db, "scheduled-start"),
            static_cast<size_t>(opts.num_tasks));
  EXPECT_EQ(RelationSize(db, "delay"), 1u);
  // affects is a DAG by construction (i < j).
  const auto* aff = db.Find("affects");
  ASSERT_NE(aff, nullptr);
  for (const auto& t : aff->rows()) {
    int a = std::stoi(db.symbols().name(t[0].AsSymbol()).substr(1));
    int b = std::stoi(db.symbols().name(t[1].AsSymbol()).substr(1));
    EXPECT_LT(a, b);
  }
}

TEST(GeneratorsTest, HypertextSchema) {
  Database db;
  HypertextOptions opts;
  ASSERT_OK(Hypertext(opts, &db));
  EXPECT_EQ(RelationSize(db, "author"),
            static_cast<size_t>(opts.num_pages));
  EXPECT_EQ(RelationSize(db, "title-word"),
            static_cast<size_t>(opts.num_pages));
  EXPECT_GT(RelationSize(db, "link"), 0u);

  // One page can link nowhere: `link` is declared anyway, empty.
  Database one;
  opts.num_pages = 1;
  ASSERT_OK(Hypertext(opts, &one));
  EXPECT_EQ(RelationSize(one, "author"), 1u);
  ASSERT_NE(one.Find("link"), nullptr);
  EXPECT_EQ(one.Find("link")->size(), 0u);
}

TEST(GeneratorsTest, BadSizesAreInvalidArgument) {
  // Negative counts, and zero counts that would divide or bound an empty
  // uniform_int_distribution, are refused before any fact is emitted.
  auto modules = [](void (*set)(ModulesOptions*)) {
    ModulesOptions o;
    set(&o);
    Database db;
    return Modules(o, &db).code();
  };
  EXPECT_EQ(modules([](ModulesOptions* o) { o->num_modules = -3; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(modules([](ModulesOptions* o) { o->functions_per_module = 0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(modules([](ModulesOptions* o) { o->functions_per_module = -1; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(modules([](ModulesOptions* o) { o->num_libraries = 0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(modules([](ModulesOptions* o) { o->num_libraries = -1; }),
            StatusCode::kInvalidArgument);

  auto tasks = [](void (*set)(TasksOptions*)) {
    TasksOptions o;
    set(&o);
    Database db;
    return Tasks(o, &db).code();
  };
  EXPECT_EQ(tasks([](TasksOptions* o) { o->num_tasks = -3; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tasks([](TasksOptions* o) { o->num_tasks = 0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tasks([](TasksOptions* o) { o->max_duration = 0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(tasks([](TasksOptions* o) { o->max_duration = -1; }),
            StatusCode::kInvalidArgument);

  auto hypertext = [](void (*set)(HypertextOptions*)) {
    HypertextOptions o;
    set(&o);
    Database db;
    return Hypertext(o, &db).code();
  };
  EXPECT_EQ(hypertext([](HypertextOptions* o) { o->num_pages = -5; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(hypertext([](HypertextOptions* o) { o->num_authors = 0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(hypertext([](HypertextOptions* o) { o->num_authors = -1; }),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace graphlog::workload
