#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "common/curve.hpp"
#include "common/error.hpp"
#include "common/table.hpp"

namespace aqua {
namespace {

// ---------------------------------------------------------------- curve ----

TEST(Curve, InterpolatesLinearly) {
  const Curve c({{0.0, 0.0}, {2.0, 4.0}});
  EXPECT_DOUBLE_EQ(c.at(1.0), 2.0);
  EXPECT_DOUBLE_EQ(c.at(0.5), 1.0);
}

TEST(Curve, ClampsOutsideDomain) {
  const Curve c({{1.0, 10.0}, {2.0, 20.0}});
  EXPECT_DOUBLE_EQ(c.at(0.0), 10.0);
  EXPECT_DOUBLE_EQ(c.at(3.0), 20.0);
}

TEST(Curve, HitsSamplePoints) {
  const Curve c({{1.0, 5.0}, {2.0, 3.0}, {4.0, 9.0}});
  EXPECT_DOUBLE_EQ(c.at(1.0), 5.0);
  EXPECT_DOUBLE_EQ(c.at(2.0), 3.0);
  EXPECT_DOUBLE_EQ(c.at(4.0), 9.0);
}

TEST(Curve, InverseOfIncreasingCurve) {
  const Curve c({{1.0, 10.0}, {3.0, 30.0}});
  EXPECT_DOUBLE_EQ(c.inverse(20.0), 2.0);
  EXPECT_DOUBLE_EQ(c.inverse(5.0), 1.0);   // clamped
  EXPECT_DOUBLE_EQ(c.inverse(40.0), 3.0);  // clamped
}

TEST(Curve, InverseOfDecreasingCurve) {
  const Curve c({{0.0, 10.0}, {10.0, 0.0}});
  EXPECT_DOUBLE_EQ(c.inverse(5.0), 5.0);
}

TEST(Curve, NonMonotoneInverseThrows) {
  const Curve c({{0.0, 0.0}, {1.0, 2.0}, {2.0, 1.0}});
  EXPECT_THROW((void)c.inverse(0.5), Error);
}

TEST(Curve, RejectsNonIncreasingX) {
  EXPECT_THROW(Curve({{1.0, 0.0}, {1.0, 1.0}}), Error);
  EXPECT_THROW(Curve({{2.0, 0.0}, {1.0, 1.0}}), Error);
  EXPECT_THROW(Curve(std::vector<std::pair<double, double>>{}), Error);
}

// ---------------------------------------------------------------- table ----

TEST(Table, AlignsAndPrints) {
  Table t({"name", "value"});
  t.row().add("alpha").add(1.5, 2);
  t.row().add("b").add_int(42);
  t.row().add("missing").add_missing();
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_EQ(t.row_count(), 3u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row().add_int(1).add_int(2);
  std::ostringstream out;
  t.write_csv(out);
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(Table, TooManyCellsThrows) {
  Table t({"only"});
  t.row().add("x");
  EXPECT_THROW(t.add("y"), Error);
}

TEST(Table, AddBeforeRowThrows) {
  Table t({"c"});
  EXPECT_THROW(t.add("x"), Error);
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
}

// ---------------------------------------------------------------- error ----

TEST(ErrorHelpers, RequireThrowsWithContext) {
  try {
    require(false, "my message");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("my message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("precondition"), std::string::npos);
  }
}

// what() keeps the full diagnostic; message() is the caller's text alone,
// which is what tools and service replies show a user.
TEST(ErrorHelpers, MessageIsTheCallersTextOnly) {
  try {
    ensure(false, "bad grid");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.message(), "bad grid");
    EXPECT_EQ(user_message(e), "bad grid");
    const std::string what = e.what();
    EXPECT_NE(what.find("invariant violated at "), std::string::npos);
    EXPECT_NE(what.find("test_misc.cpp"), std::string::npos);
  }
  const Error plain("unknown figure: fig99");
  EXPECT_EQ(plain.message(), std::string(plain.what()));
  EXPECT_EQ(user_message(std::runtime_error("io")), "io");
}

TEST(ErrorHelpers, EnsurePassesWhenTrue) {
  require(true, "never thrown");
  ensure(true, "never thrown");
}

}  // namespace
}  // namespace aqua
