// Tests for the storage layer: relations, indexes, database catalog.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "storage/database.h"
#include "storage/relation.h"
#include "tests/test_util.h"

namespace graphlog::storage {
namespace {

TEST(RelationTest, InsertDeduplicates) {
  Relation r(2);
  EXPECT_TRUE(r.Insert({Value::Int(1), Value::Int(2)}));
  EXPECT_FALSE(r.Insert({Value::Int(1), Value::Int(2)}));
  EXPECT_TRUE(r.Insert({Value::Int(2), Value::Int(1)}));
  EXPECT_EQ(r.size(), 2u);
}

TEST(RelationTest, ContainsAndRows) {
  Relation r(1);
  r.Insert({Value::Int(5)});
  EXPECT_TRUE(r.Contains({Value::Int(5)}));
  EXPECT_FALSE(r.Contains({Value::Int(6)}));
  EXPECT_EQ(r.rows().size(), 1u);
}

TEST(RelationTest, InsertionOrderPreserved) {
  Relation r(1);
  for (int i = 9; i >= 0; --i) r.Insert({Value::Int(i)});
  EXPECT_EQ(r.rows().front()[0], Value::Int(9));
  EXPECT_EQ(r.rows().back()[0], Value::Int(0));
  // SortedRows is canonical.
  EXPECT_EQ(r.SortedRows().front()[0], Value::Int(0));
}

TEST(RelationTest, ProbeSingleColumn) {
  Relation r(2);
  r.Insert({Value::Int(1), Value::Int(10)});
  r.Insert({Value::Int(1), Value::Int(11)});
  r.Insert({Value::Int(2), Value::Int(20)});
  ProbeResult hits = r.Probe({0}, {Value::Int(1)});
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_TRUE(r.Probe({0}, {Value::Int(3)}).empty());
}

TEST(RelationTest, ProbeMultiColumn) {
  Relation r(3);
  r.Insert({Value::Int(1), Value::Int(2), Value::Int(3)});
  r.Insert({Value::Int(1), Value::Int(9), Value::Int(3)});
  ProbeResult hits = r.Probe({0, 2}, {Value::Int(1), Value::Int(3)});
  EXPECT_EQ(hits.size(), 2u);
  ProbeResult one = r.Probe({0, 1}, {Value::Int(1), Value::Int(2)});
  EXPECT_EQ(one.size(), 1u);
}

TEST(RelationTest, IndexMaintainedAcrossInserts) {
  Relation r(2);
  r.Insert({Value::Int(1), Value::Int(2)});
  EXPECT_EQ(r.Probe({0}, {Value::Int(1)}).size(), 1u);
  r.Insert({Value::Int(1), Value::Int(3)});
  EXPECT_EQ(r.Probe({0}, {Value::Int(1)}).size(), 2u);
}

TEST(RelationTest, InterleavedInsertProbeStaysConsistent) {
  // Fixpoint-style usage: alternate inserts and probes and check the
  // incrementally maintained index against the ground truth every round.
  Relation r(2);
  for (int i = 0; i < 200; ++i) {
    r.Insert({Value::Int(i % 7), Value::Int(i)});
    ProbeResult hits = r.Probe({0}, {Value::Int(i % 7)});
    size_t expect = 0;
    for (const Tuple& t : r.rows()) {
      if (t[0] == Value::Int(i % 7)) ++expect;
    }
    ASSERT_EQ(hits.size(), expect) << "after insert " << i;
    for (uint32_t id : hits) {
      ASSERT_EQ(r.row(id)[0], Value::Int(i % 7));
    }
  }
  // Exactly one build of the {0} index; everything after was an append.
  EXPECT_EQ(r.index_builds(), 1u);
  EXPECT_GT(r.index_appends(), 0u);
}

TEST(RelationTest, DuplicateInsertDoesNotTouchIndexes) {
  Relation r(1);
  r.Insert({Value::Int(1)});
  r.Probe({0}, {Value::Int(1)});  // build the index
  const uint64_t gen = r.generation();
  const uint64_t appends = r.index_appends();
  EXPECT_FALSE(r.Insert({Value::Int(1)}));
  EXPECT_EQ(r.generation(), gen);
  EXPECT_EQ(r.index_appends(), appends);
}

TEST(RelationTest, MultipleIndexesAllMaintained) {
  Relation r(2);
  r.Insert({Value::Int(1), Value::Int(10)});
  r.Probe({0}, {Value::Int(1)});
  r.Probe({1}, {Value::Int(10)});
  r.Probe({0, 1}, {Value::Int(1), Value::Int(10)});
  EXPECT_EQ(r.index_builds(), 3u);
  r.Insert({Value::Int(1), Value::Int(11)});
  EXPECT_EQ(r.Probe({0}, {Value::Int(1)}).size(), 2u);
  EXPECT_EQ(r.Probe({1}, {Value::Int(11)}).size(), 1u);
  EXPECT_EQ(r.Probe({0, 1}, {Value::Int(1), Value::Int(11)}).size(), 1u);
  // One append per built index for the one new row.
  EXPECT_EQ(r.index_appends(), 3u);
  EXPECT_EQ(r.index_builds(), 3u);  // no rebuilds
}

TEST(ProbeResultTest, InvalidatedByInsert) {
  Relation r(1);
  r.Insert({Value::Int(1)});
  ProbeResult hits = r.Probe({0}, {Value::Int(1)});
  EXPECT_TRUE(hits.valid());
  r.Insert({Value::Int(2)});
  EXPECT_FALSE(hits.valid());
}

TEST(ProbeResultTest, DuplicateInsertKeepsViewValid) {
  Relation r(1);
  r.Insert({Value::Int(1)});
  ProbeResult hits = r.Probe({0}, {Value::Int(1)});
  EXPECT_FALSE(r.Insert({Value::Int(1)}));  // no structural change
  EXPECT_TRUE(hits.valid());
  EXPECT_EQ(hits.size(), 1u);
}

TEST(ProbeResultTest, InvalidatedByClearAndDropIndexes) {
  Relation r(1);
  r.Insert({Value::Int(1)});
  ProbeResult a = r.Probe({0}, {Value::Int(1)});
  r.DropIndexes();
  EXPECT_FALSE(a.valid());
  ProbeResult b = r.Probe({0}, {Value::Int(1)});
  EXPECT_TRUE(b.valid());
  r.Clear();
  EXPECT_FALSE(b.valid());
}

TEST(ProbeResultTest, DefaultConstructedIsValidAndEmpty) {
  ProbeResult p;
  EXPECT_TRUE(p.valid());
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.begin(), p.end());
}

TEST(RelationTest, DropIndexesForcesRebuild) {
  Relation r(2);
  r.Insert({Value::Int(1), Value::Int(2)});
  r.Probe({0}, {Value::Int(1)});
  EXPECT_EQ(r.index_builds(), 1u);
  r.DropIndexes();
  EXPECT_EQ(r.Probe({0}, {Value::Int(1)}).size(), 1u);
  EXPECT_EQ(r.index_builds(), 2u);
}

TEST(RelationTest, SetEquals) {
  Relation a(1), b(1);
  a.Insert({Value::Int(1)});
  a.Insert({Value::Int(2)});
  b.Insert({Value::Int(2)});
  b.Insert({Value::Int(1)});
  EXPECT_TRUE(a.SetEquals(b));
  b.Insert({Value::Int(3)});
  EXPECT_FALSE(a.SetEquals(b));
}

TEST(RelationTest, InsertAllReportsNovelCount) {
  Relation a(1), b(1);
  a.Insert({Value::Int(1)});
  b.Insert({Value::Int(1)});
  b.Insert({Value::Int(2)});
  EXPECT_EQ(a.InsertAll(b), 1u);
  EXPECT_EQ(a.size(), 2u);
}

// ---------------------------------------------------------------------------
// Copies share row chunks; writes on either side never show through.

/// Two and a half chunks of distinct binary rows.
Relation ChunkedRelation() {
  Relation r(2);
  for (size_t i = 0; i < 2 * kChunkRows + kChunkRows / 2; ++i) {
    r.Insert({Value::Int(static_cast<int64_t>(i)), Value::Int(7)});
  }
  return r;
}

TEST(RelationCopyTest, CopySharesRowsWithTheOriginal) {
  Relation a = ChunkedRelation();
  Relation b(a);
  ASSERT_EQ(b.size(), a.size());
  EXPECT_EQ(b.data_generation(), a.data_generation());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(&a.row(i), &b.row(i)) << "row " << i << " was copied";
  }
  // A write copies at most the chunk it lands in; full chunks stay shared.
  ASSERT_TRUE(b.Insert({Value::Int(-1), Value::Int(7)}));
  EXPECT_EQ(&a.row(0), &b.row(0));
  EXPECT_EQ(&a.row(2 * kChunkRows - 1), &b.row(2 * kChunkRows - 1));
  EXPECT_NE(&a.row(2 * kChunkRows), &b.row(2 * kChunkRows));
}

TEST(RelationCopyTest, WritesOnEitherSideNeverShowThrough) {
  using Op = void (*)(Relation*);
  const std::vector<std::pair<const char*, Op>> ops = {
      {"Insert",
       [](Relation* r) { r->Insert({Value::Int(-1), Value::Int(0)}); }},
      {"AppendUnique",
       [](Relation* r) { r->AppendUnique({Value::Int(-2), Value::Int(0)}); }},
      {"TruncateTo", [](Relation* r) { r->TruncateTo(kChunkRows + 3); }},
      {"TruncateToChunkEdge", [](Relation* r) { r->TruncateTo(kChunkRows); }},
      {"Clear", [](Relation* r) { r->Clear(); }},
      {"RollbackStagedTo",
       [](Relation* r) {
         const size_t n = r->size();
         for (int i = 0; i < 3; ++i) {
           r->InsertStaged({Value::Int(-10 - i), Value::Int(0)});
         }
         r->RollbackStagedTo(n);
       }},
  };
  for (const auto& [name, op] : ops) {
    for (bool mutate_copy : {false, true}) {
      SCOPED_TRACE(std::string(name) +
                   (mutate_copy ? " on copy" : " on original"));
      Relation original = ChunkedRelation();
      Relation copy(original);
      Relation& changed = mutate_copy ? copy : original;
      const Relation& other = mutate_copy ? original : copy;
      const std::vector<Tuple> before = other.rows();
      const uint64_t stamp = other.data_generation();
      op(&changed);
      // Interleave a second write so a shared tail chunk is exercised
      // after the first copy-on-write, too.
      changed.Insert({Value::Int(-4), Value::Int(0)});
      EXPECT_EQ(std::vector<Tuple>(other.rows()), before);
      EXPECT_EQ(other.size(), before.size());
      EXPECT_EQ(other.data_generation(), stamp);
      EXPECT_FALSE(other.Contains({Value::Int(-4), Value::Int(0)}));
      EXPECT_TRUE(other.Contains(before.back()));
      EXPECT_TRUE(changed.Contains({Value::Int(-4), Value::Int(0)}));
    }
  }
}

TEST(RelationCopyTest, LazilyRebuiltDedupSetRejectsDuplicates) {
  Relation a = ChunkedRelation();
  Relation b(a);
  EXPECT_FALSE(b.Insert({Value::Int(0), Value::Int(7)}));
  EXPECT_FALSE(b.Insert(a.rows().back()));
  EXPECT_EQ(b.size(), a.size());
  b.AppendUnique({Value::Int(-1), Value::Int(7)});
  Relation c(b);
  EXPECT_FALSE(c.Insert({Value::Int(-1), Value::Int(7)}));
  EXPECT_TRUE(c.Insert({Value::Int(-2), Value::Int(7)}));
  EXPECT_EQ(c.size(), b.size() + 1);
  EXPECT_TRUE(c.SetEquals(c));
}

TEST(RelationCopyTest, CatchUpKeepsIndexesAndRefusesADifferentPrefix) {
  Relation live = ChunkedRelation();
  Relation reader(live);
  reader.BuildIndex({1});
  ASSERT_TRUE(live.Insert({Value::Int(-1), Value::Int(7)}));
  ASSERT_TRUE(live.Insert({Value::Int(-2), Value::Int(8)}));
  const Relation grown(live);
  ASSERT_TRUE(reader.CatchUp(grown));
  EXPECT_EQ(reader.rows(), live.rows());
  EXPECT_EQ(reader.data_generation(), grown.data_generation());
  EXPECT_EQ(reader.Probe({1}, {Value::Int(7)}).size(), live.size() - 1);
  EXPECT_EQ(reader.Probe({1}, {Value::Int(8)}).size(), 1u);
  EXPECT_EQ(reader.index_builds(), 1u);  // appended to, never rebuilt
  EXPECT_FALSE(reader.Insert({Value::Int(-2), Value::Int(8)}));

  // A version whose rows are not an extension of the reader's is refused.
  Relation rewritten(live);
  rewritten.TruncateTo(kChunkRows + 1);
  rewritten.Insert({Value::Int(-3), Value::Int(7)});
  for (int i = 0; i < 2 * static_cast<int>(kChunkRows); ++i) {
    rewritten.Insert({Value::Int(-10 - i), Value::Int(7)});
  }
  EXPECT_FALSE(reader.CatchUp(rewritten));
  EXPECT_EQ(reader.rows(), live.rows());
}

TEST(RelationCopyTest, MemoryBytesOfACopyEqualsTheOriginal) {
  Relation a = ChunkedRelation();
  Relation b(a);
  EXPECT_EQ(b.MemoryBytes(), a.MemoryBytes());
  // The estimate counts logical rows, not which side owns a chunk or
  // whether the lazily rebuilt dedup set has caught up.
  b.Insert({Value::Int(-1), Value::Int(7)});
  a.Insert({Value::Int(-1), Value::Int(7)});
  EXPECT_EQ(b.MemoryBytes(), a.MemoryBytes());
  a.BuildIndex({0});
  b.BuildIndex({0});
  EXPECT_EQ(b.MemoryBytes(), a.MemoryBytes());
}

TEST(DatabaseTest, DeclareIsIdempotent) {
  Database db;
  ASSERT_OK_AND_ASSIGN(Relation * r1, db.Declare("p", 2));
  ASSERT_OK_AND_ASSIGN(Relation * r2, db.Declare("p", 2));
  EXPECT_EQ(r1, r2);
}

TEST(DatabaseTest, DeclareArityConflictFails) {
  Database db;
  ASSERT_OK(db.Declare("p", 2).status());
  auto r = db.Declare("p", 3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kArityMismatch);
}

TEST(DatabaseTest, AddFactDeclaresOnFirstUse) {
  Database db;
  ASSERT_OK(db.AddFact("q", {Value::Int(1)}));
  const Relation* rel = db.Find("q");
  ASSERT_NE(rel, nullptr);
  EXPECT_EQ(rel->arity(), 1u);
}

TEST(DatabaseTest, FindByNameAndSymbol) {
  Database db;
  ASSERT_OK(db.AddSymFact("r", {"a", "b"}));
  EXPECT_NE(db.Find("r"), nullptr);
  EXPECT_EQ(db.Find("missing"), nullptr);
  Symbol s = db.symbols().Lookup("r");
  EXPECT_NE(db.Find(s), nullptr);
}

TEST(DatabaseTest, TotalTuplesAndRetainOnly) {
  Database db;
  ASSERT_OK(db.AddSymFact("a", {"x"}));
  ASSERT_OK(db.AddSymFact("b", {"y"}));
  ASSERT_OK(db.AddSymFact("b", {"z"}));
  EXPECT_EQ(db.TotalTuples(), 3u);
  db.RetainOnly({db.Intern("b")});
  EXPECT_EQ(db.Find("a"), nullptr);
  EXPECT_EQ(db.TotalTuples(), 2u);
}

TEST(DatabaseTest, RelationToStringSorted) {
  Database db;
  ASSERT_OK(db.AddSymFact("e", {"b", "c"}));
  ASSERT_OK(db.AddSymFact("e", {"a", "b"}));
  EXPECT_EQ(db.RelationToString(db.Intern("e")),
            "e(a, b).\ne(b, c).\n");
}

}  // namespace
}  // namespace graphlog::storage
