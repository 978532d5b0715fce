/**
 * @file
 * Unit tests for the typed command-line flag registry (util/flags).
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "util/flags.hpp"
#include "util/logging.hpp"

namespace {

using namespace tbstc::util;

/** argv builder: prepends the program + subcommand tokens. */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args)
        : strings_(std::move(args))
    {
        strings_.insert(strings_.begin(), {"tbstc", "sub"});
        for (auto &s : strings_)
            ptrs_.push_back(s.data());
    }

    int argc() const { return static_cast<int>(ptrs_.size()); }
    char **argv() { return ptrs_.data(); }

  private:
    std::vector<std::string> strings_;
    std::vector<char *> ptrs_;
};

TEST(Flags, ParsesTypedValuesAndDefaults)
{
    std::string name = "default";
    double ratio = 0.5;
    uint64_t count = 7;
    bool verbose = false;
    FlagSet flags("sub");
    flags.option("name", &name, "S", "a string")
        .option("ratio", &ratio, "R", "a double")
        .option("count", &count, "N", "an integer")
        .flag("verbose", &verbose, "a switch");

    Argv a({"--name", "alice", "--ratio", "0.75", "--verbose"});
    const auto r = flags.parse(a.argc(), a.argv());
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ(name, "alice");
    EXPECT_DOUBLE_EQ(ratio, 0.75);
    EXPECT_EQ(count, 7u); // Untouched default.
    EXPECT_TRUE(verbose);
    EXPECT_TRUE(flags.seen("name"));
    EXPECT_FALSE(flags.seen("count"));
}

TEST(Flags, ReportsUnknownFlag)
{
    FlagSet flags("sub");
    Argv a({"--bogus"});
    const auto r = flags.parse(a.argc(), a.argv());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, FlagErrorKind::UnknownFlag);
    EXPECT_EQ(r.error().flag, "bogus");
}

TEST(Flags, ReportsBadNumericValue)
{
    double d = 0.0;
    uint64_t u = 0;
    FlagSet flags("sub");
    flags.option("d", &d, "R", "").option("u", &u, "N", "");

    Argv bad_d({"--d", "not-a-number"});
    auto r = flags.parse(bad_d.argc(), bad_d.argv());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, FlagErrorKind::BadValue);

    Argv trailing({"--d", "1.5x"});
    r = flags.parse(trailing.argc(), trailing.argv());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, FlagErrorKind::BadValue);

    Argv negative({"--u", "-3"});
    r = flags.parse(negative.argc(), negative.argv());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, FlagErrorKind::BadValue);
}

TEST(Flags, ReportsMissingValueAndMissingRequired)
{
    std::string s;
    FlagSet flags("sub");
    flags.option("s", &s, "S", "", /*required=*/true);

    Argv dangling({"--s"});
    auto r = flags.parse(dangling.argc(), dangling.argv());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, FlagErrorKind::MissingValue);

    Argv empty({});
    r = flags.parse(empty.argc(), empty.argv());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, FlagErrorKind::MissingRequired);
    EXPECT_EQ(r.error().flag, "s");
}

TEST(Flags, PositionalsFillInOrder)
{
    std::string first;
    std::string second;
    FlagSet flags("sub");
    flags.positional("FIRST", &first, "")
        .positional("SECOND", &second, "", /*required=*/false);

    Argv a({"one", "two"});
    ASSERT_TRUE(flags.parse(a.argc(), a.argv()).ok());
    EXPECT_EQ(first, "one");
    EXPECT_EQ(second, "two");

    FlagSet flags2("sub");
    flags2.positional("FIRST", &first, "");
    Argv extra({"one", "surplus"});
    const auto r = flags2.parse(extra.argc(), extra.argv());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, FlagErrorKind::UnexpectedPositional);

    FlagSet flags3("sub");
    flags3.positional("FIRST", &first, "");
    Argv none({});
    const auto r3 = flags3.parse(none.argc(), none.argv());
    ASSERT_FALSE(r3.ok());
    EXPECT_EQ(r3.error().kind, FlagErrorKind::MissingPositional);
}

TEST(Flags, HelpTokenShortCircuits)
{
    std::string s;
    FlagSet flags("sub");
    flags.option("s", &s, "S", "", /*required=*/true);
    // --help wins even though the required flag is absent.
    Argv a({"--help"});
    ASSERT_TRUE(flags.parse(a.argc(), a.argv()).ok());
    EXPECT_TRUE(flags.helpRequested());
}

TEST(Flags, HelpListsEveryRegisteredFlag)
{
    std::string s;
    bool b = false;
    std::string pos;
    FlagSet flags("sub", "A one-line summary.");
    flags.positional("FILE", &pos, "the input file");
    flags.option("opt", &s, "VAL", "an option", /*required=*/true);
    flags.flag("switch", &b, "a switch");
    const std::string help = flags.help();
    EXPECT_NE(help.find("usage: tbstc sub FILE [options]"),
              std::string::npos)
        << help;
    EXPECT_NE(help.find("A one-line summary."), std::string::npos);
    EXPECT_NE(help.find("--opt VAL"), std::string::npos);
    EXPECT_NE(help.find("(required)"), std::string::npos);
    EXPECT_NE(help.find("--switch"), std::string::npos);
    EXPECT_NE(help.find("the input file"), std::string::npos);
}

TEST(Flags, HelpRendersDefaultsFromBoundValues)
{
    std::string layer = "512x512x1";
    std::string empty;
    double ratio = 0.75;
    uint64_t seed = 42;
    std::optional<double> bw;
    bool b = false;
    FlagSet flags("sub");
    flags.option("layer", &layer, "L", "a shape")
        .option("empty", &empty, "S", "no default")
        .option("ratio", &ratio, "R", "a ratio")
        .option("seed", &seed, "N", "a seed")
        .option("bw", &bw, "B", "unset until given")
        .flag("switch", &b, "a switch");
    const std::string help = flags.help();
    EXPECT_NE(help.find("a shape (default 512x512x1)\n"), std::string::npos)
        << help;
    EXPECT_NE(help.find("no default\n"), std::string::npos);
    EXPECT_NE(help.find("a ratio (default 0.75)\n"), std::string::npos);
    EXPECT_NE(help.find("a seed (default 42)\n"), std::string::npos);
    EXPECT_NE(help.find("unset until given\n"), std::string::npos);
    EXPECT_NE(help.find("a switch\n"), std::string::npos);
}

TEST(Flags, OptionalDoubleIsSetOnlyWhenGiven)
{
    std::optional<double> bw;
    FlagSet flags("sub");
    flags.option("bw", &bw, "B", "");
    Argv none({});
    ASSERT_TRUE(flags.parse(none.argc(), none.argv()).ok());
    EXPECT_FALSE(bw.has_value());
    Argv given({"--bw", "12.5"});
    ASSERT_TRUE(flags.parse(given.argc(), given.argv()).ok());
    EXPECT_DOUBLE_EQ(bw.value_or(0.0), 12.5);
    Argv junk({"--bw", "fast"});
    const auto r = flags.parse(junk.argc(), junk.argv());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, FlagErrorKind::BadValue);
}

TEST(Flags, NarrowUnsignedRejectsValuesAboveItsMaximum)
{
    uint16_t port = 0;
    size_t count = 3;
    FlagSet flags("sub");
    flags.option("port", &port, "N", "").option("count", &count, "N", "");
    Argv ok({"--port", "65535", "--count", "9"});
    ASSERT_TRUE(flags.parse(ok.argc(), ok.argv()).ok());
    EXPECT_EQ(port, 65535u);
    EXPECT_EQ(count, 9u);
    Argv big({"--port", "65536"});
    const auto r = flags.parse(big.argc(), big.argv());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().kind, FlagErrorKind::BadValue);
    EXPECT_EQ(r.error().flag, "port");
}

TEST(Flags, ValuesMayBeginWithDash)
{
    // A valued option consumes the next token verbatim, so file names
    // or negative numbers that start with '-' (not "--") parse fine.
    std::string out;
    double d = 0.0;
    FlagSet flags("sub");
    flags.option("out", &out, "F", "").option("d", &d, "R", "");
    Argv a({"--out", "-dashfile", "--d", "-2.5"});
    ASSERT_TRUE(flags.parse(a.argc(), a.argv()).ok());
    EXPECT_EQ(out, "-dashfile");
    EXPECT_DOUBLE_EQ(d, -2.5);
}

TEST(Flags, DuplicateRegistrationPanics)
{
    bool b = false;
    FlagSet flags("sub");
    flags.flag("twice", &b, "");
    EXPECT_THROW(flags.flag("twice", &b, ""), PanicError);
}

TEST(Flags, ErrorNamesAreStable)
{
    EXPECT_STREQ(flagErrorName(FlagErrorKind::UnknownFlag),
                 "UnknownFlag");
    EXPECT_STREQ(flagErrorName(FlagErrorKind::BadValue), "BadValue");
    EXPECT_STREQ(flagErrorName(FlagErrorKind::MissingRequired),
                 "MissingRequired");
}

} // namespace
