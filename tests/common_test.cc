// Unit tests for the common runtime layer: Status, Result, SymbolTable,
// Value, string helpers.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/symbol_table.h"
#include "common/value.h"
#include "tests/test_util.h"

namespace graphlog {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_EQ(Status::OK(), Status());
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto f = [](bool fail) -> Status {
    GRAPHLOG_RETURN_NOT_OK(fail ? Status::Internal("boom") : Status::OK());
    return Status::OK();
  };
  EXPECT_TRUE(f(false).ok());
  EXPECT_EQ(f(true).code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::InvalidArgument("x");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    GRAPHLOG_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  ASSERT_TRUE(outer(false).ok());
  EXPECT_EQ(*outer(false), 8);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kInvalidArgument);
}

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable t;
  Symbol a = t.Intern("foo");
  Symbol b = t.Intern("foo");
  Symbol c = t.Intern("bar");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(t.name(a), "foo");
  EXPECT_EQ(t.name(c), "bar");
  EXPECT_EQ(t.size(), 2u);
}

TEST(SymbolTableTest, LookupDoesNotIntern) {
  SymbolTable t;
  EXPECT_EQ(t.Lookup("missing"), kNoSymbol);
  Symbol a = t.Intern("present");
  EXPECT_EQ(t.Lookup("present"), a);
  EXPECT_EQ(t.size(), 1u);
}

TEST(SymbolTableTest, FreshAvoidsCollisions) {
  SymbolTable t;
  Symbol a = t.Fresh("aux");
  EXPECT_EQ(t.name(a), "aux");
  Symbol b = t.Fresh("aux");
  EXPECT_NE(a, b);
  EXPECT_NE(t.name(b), "aux");
  Symbol c = t.Fresh("aux");
  EXPECT_NE(b, c);
}

TEST(SymbolTableTest, FreezeKeepsIdsAndSharesThePrefix) {
  SymbolTable server;
  std::vector<Symbol> ids;
  // Many small freezes, as one publish per commit makes: every id keeps
  // its string, and the prefix stays readable through both lookups.
  for (int i = 0; i < 300; ++i) {
    ids.push_back(server.Intern("s" + std::to_string(i)));
    if (i % 3 == 2) server.Freeze();
  }
  std::shared_ptr<const SymbolPrefix> prefix = server.Freeze();
  ASSERT_EQ(prefix->size(), 300u);
  EXPECT_EQ(server.Freeze(), prefix);  // nothing new: the same prefix
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(ids[i], static_cast<Symbol>(i));
    EXPECT_EQ(server.name(ids[i]), "s" + std::to_string(i));
    EXPECT_EQ(prefix->name(ids[i]), "s" + std::to_string(i));
    EXPECT_EQ(prefix->Lookup("s" + std::to_string(i)), ids[i]);
  }
  // Interning continues densely after the frozen prefix.
  EXPECT_EQ(server.Intern("next"), 300u);
}

TEST(SymbolTableTest, SessionTableInternsOutsideTheServerRange) {
  SymbolTable server;
  const Symbol a = server.Intern("a");
  SymbolTable session(server.Freeze());
  EXPECT_EQ(session.Intern("a"), a);  // prefix symbols resolve in place
  const Symbol x = session.Intern("X");
  EXPECT_GE(x, kLocalSymbolBase);
  EXPECT_EQ(session.name(x), "X");
  EXPECT_TRUE(session.Contains(x));
  EXPECT_EQ(server.Lookup("X"), kNoSymbol);

  // The server grows; the session moves onto the newer prefix in place.
  const Symbol b = server.Intern("b");
  ASSERT_TRUE(session.Rebase(server.Freeze()));
  EXPECT_EQ(session.Lookup("b"), b);
  EXPECT_EQ(session.Lookup("X"), x);
  EXPECT_EQ(session.name(b), "b");

  // A server symbol spelled like a session-local one refuses the rebase
  // and leaves the session table as it was.
  server.Intern("X");
  EXPECT_FALSE(session.Rebase(server.Freeze()));
  EXPECT_EQ(session.Lookup("X"), x);
}

TEST(ValueTest, Kinds) {
  EXPECT_TRUE(Value::Int(3).is_int());
  EXPECT_TRUE(Value::Double(3.5).is_double());
  EXPECT_TRUE(Value::Sym(2).is_symbol());
  EXPECT_TRUE(Value::Int(3).is_numeric());
  EXPECT_TRUE(Value::Double(3.5).is_numeric());
  EXPECT_FALSE(Value::Sym(0).is_numeric());
}

TEST(ValueTest, EqualityIsKindSensitive) {
  EXPECT_EQ(Value::Int(3), Value::Int(3));
  EXPECT_NE(Value::Int(3), Value::Double(3.0));  // distinct kinds
  EXPECT_NE(Value::Int(3), Value::Int(4));
  EXPECT_EQ(Value::Sym(5), Value::Sym(5));
}

TEST(ValueTest, TotalOrder) {
  // Order by kind tag first, then payload.
  EXPECT_LT(Value::Int(99), Value::Double(0.0));
  EXPECT_LT(Value::Double(99.0), Value::Sym(0));
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::Sym(1), Value::Sym(2));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
  EXPECT_EQ(Value::Double(2.5).Hash(), Value::Double(2.5).Hash());
  // Different kinds with the same bit pattern should (almost surely) differ.
  EXPECT_NE(Value::Int(7).Hash(), Value::Sym(7).Hash());
}

TEST(ValueTest, ToStringRendersAllKinds) {
  SymbolTable t;
  Symbol s = t.Intern("toronto");
  EXPECT_EQ(Value::Int(-3).ToString(t), "-3");
  EXPECT_EQ(Value::Sym(s).ToString(t), "toronto");
  EXPECT_EQ(Value::Double(2.5).ToString(t), "2.5");
  EXPECT_EQ(Value::Double(2.0).ToString(t), "2.0");
}

TEST(StringsTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x \n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, EscapeQuoted) {
  EXPECT_EQ(EscapeQuoted("a\"b\\c"), "a\\\"b\\\\c");
}

}  // namespace
}  // namespace graphlog
