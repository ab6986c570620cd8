// Strict CLI parsing. Malformed numbers used to be silently truncated by
// atoll ("--ops=10k" ran 10 ops); now every numeric token must parse
// completely, and a count must be unsigned and fit the caller's type, or
// the process exits(2) naming the token. Likewise every --key a binary
// never reads exits(2) at reject_unread(), naming the key.
// Rejection paths are death tests: the parser is specified to terminate.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/cli.hpp"

namespace semstm {
namespace {

Cli make_cli(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;  // keep c_str()s alive
  storage = std::move(args);
  argv.push_back(const_cast<char*>("prog"));
  for (auto& a : storage) argv.push_back(const_cast<char*>(a.c_str()));
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesWellFormedInts) {
  Cli cli = make_cli(
      {"--ops=1000", "--threads", "4", "--seed=18446744073709551615"});
  EXPECT_EQ(cli.get_uint<std::uint64_t>("ops", 0), 1000u);
  EXPECT_EQ(cli.get_uint<unsigned>("threads", 0), 4u);
  EXPECT_EQ(cli.get_uint<std::uint64_t>("seed", 0), ~std::uint64_t{0});
  EXPECT_EQ(cli.get_uint<unsigned>("absent", 42), 42u);
}

TEST(Cli, ParsesWellFormedDoublesAndLists) {
  Cli cli = make_cli({"--frac=0.25", "--threads=1,2,8"});
  EXPECT_DOUBLE_EQ(cli.get_double("frac", 0.0), 0.25);
  const std::vector<unsigned> t = cli.get_list("threads", {});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], 1u);
  EXPECT_EQ(t[1], 2u);
  EXPECT_EQ(t[2], 8u);
  const std::vector<unsigned> d = cli.get_list("absent", {3, 5});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0], 3u);
}

TEST(CliDeath, RejectsTrailingGarbageInt) {
  Cli cli = make_cli({"--ops=10k"});
  EXPECT_EXIT(cli.get_uint<std::uint64_t>("ops", 0),
              ::testing::ExitedWithCode(2), "--ops: malformed number '10k'");
}

TEST(CliDeath, RejectsEmptyValue) {
  Cli cli = make_cli({"--ops="});
  EXPECT_EXIT(cli.get_uint<std::uint64_t>("ops", 0),
              ::testing::ExitedWithCode(2), "malformed number");
}

// Counts are unsigned: a sign (or a blank before it) must not wrap -5 to
// 2^64-5.
TEST(CliDeath, RejectsNegativeCount) {
  Cli cli = make_cli({"--ops=-5", "--seed= -5"});
  EXPECT_EXIT(cli.get_uint<std::uint64_t>("ops", 0),
              ::testing::ExitedWithCode(2), "--ops: malformed number '-5'");
  EXPECT_EXIT(cli.get_uint<std::uint64_t>("seed", 0),
              ::testing::ExitedWithCode(2), "--seed: malformed number ' -5'");
}

// A count must fit the caller's type rather than truncate (2^32 -> 0).
TEST(CliDeath, RejectsCountAboveTheCallersType) {
  Cli cli = make_cli({"--threads=4294967296"});
  EXPECT_EXIT(cli.get_uint<unsigned>("threads", 0),
              ::testing::ExitedWithCode(2),
              "--threads: 4294967296 is out of range \\(max 4294967295\\)");
}

TEST(CliDeath, RejectsGarbageDouble) {
  Cli cli = make_cli({"--frac=0.5abc"});
  EXPECT_EXIT(cli.get_double("frac", 0.0), ::testing::ExitedWithCode(2),
              "--frac: malformed number '0.5abc'");
}

TEST(CliDeath, RejectsSemicolonSeparatedList) {
  Cli cli = make_cli({"--threads=2;4"});
  EXPECT_EXIT(cli.get_list("threads", {}), ::testing::ExitedWithCode(2),
              "--threads: malformed number '2;4'");
}

TEST(CliDeath, RejectsListElementWithSuffix) {
  Cli cli = make_cli({"--threads=1,4x,8"});
  EXPECT_EXIT(cli.get_list("threads", {}), ::testing::ExitedWithCode(2),
              "--threads: malformed number '4x'");
}

TEST(CliDeath, RejectsTrailingCommaInList) {
  Cli cli = make_cli({"--threads=1,2,"});
  EXPECT_EXIT(cli.get_list("threads", {}), ::testing::ExitedWithCode(2),
              "malformed number");
}

TEST(CliDeath, RejectsNegativeListElement) {
  Cli cli = make_cli({"--threads=-1"});
  EXPECT_EXIT(cli.get_list("threads", {}), ::testing::ExitedWithCode(2),
              "malformed number");
}

TEST(CliDeath, RejectsUnrecognizedArgument) {
  EXPECT_EXIT(make_cli({"ops=10"}), ::testing::ExitedWithCode(2),
              "unrecognized argument");
}

TEST(CliDeath, RejectsKeysTheBinaryNeverRead) {
  // A leftover option must not silently run the default.
  Cli cli = make_cli({"--ops=10", "--real", "--cm=yield", "--trace", "t"});
  EXPECT_EQ(cli.get_uint<std::uint64_t>("ops", 0), 10u);
  EXPECT_TRUE(cli.has("trace"));
  EXPECT_EXIT(cli.reject_unread(), ::testing::ExitedWithCode(2),
              "unrecognized option: --cm\nunrecognized option: --real");
  (void)cli.get("real", ""), (void)cli.get("cm", "");
  cli.reject_unread();  // every key read: returns
}

}  // namespace
}  // namespace semstm
