// Tests for the CLI argument helper shared by the pgsi tools.
#include <gtest/gtest.h>

#include <new>
#include <stdexcept>
#include <string>
#include <utility>

#include "tools/cli_common.hpp"

using namespace pgsi;

namespace {

cli::Args make(std::vector<std::string> argv,
               const std::vector<std::string>& known) {
    std::vector<char*> ptrs;
    ptrs.push_back(const_cast<char*>("tool"));
    for (auto& a : argv) ptrs.push_back(a.data());
    return cli::Args(static_cast<int>(ptrs.size()), ptrs.data(), known);
}

} // namespace

TEST(CliArgs, PositionalAndOptions) {
    const cli::Args a =
        make({"board.txt", "--pitch", "10m", "--flag"}, {"pitch", "flag"});
    ASSERT_EQ(a.positional().size(), 1u);
    EXPECT_EQ(a.positional()[0], "board.txt");
    EXPECT_TRUE(a.has("pitch"));
    EXPECT_DOUBLE_EQ(a.num("pitch", 0.0), 10e-3);
    EXPECT_TRUE(a.has("flag"));
    EXPECT_EQ(a.str("flag", "x"), "");
}

TEST(CliArgs, Defaults) {
    const cli::Args a = make({}, {"pitch"});
    EXPECT_FALSE(a.has("pitch"));
    EXPECT_DOUBLE_EQ(a.num("pitch", 2.5), 2.5);
    EXPECT_EQ(a.str("pitch", "d"), "d");
}

TEST(CliArgs, RejectsUnknownOption) {
    EXPECT_THROW(make({"--bogus", "1"}, {"pitch"}), InvalidArgument);
}

TEST(CliArgs, SpiceSuffixValues) {
    const cli::Args a = make({"--dt", "25p", "--f", "3meg"}, {"dt", "f"});
    EXPECT_DOUBLE_EQ(a.num("dt", 0), 25e-12);
    EXPECT_DOUBLE_EQ(a.num("f", 0), 3e6);
}

// run_tool turns every exception a tool body throws into a one-line error
// and exit code 1; only a pgsi::Error (bad input) repeats the usage text.
namespace {

template <class F>
std::pair<int, std::string> run_captured(F&& body) {
    testing::internal::CaptureStderr();
    const int rc = cli::run_tool(std::forward<F>(body), "tool <board>");
    return {rc, testing::internal::GetCapturedStderr()};
}

} // namespace

TEST(CliArgs, RunToolPrintsUsageForPgsiError) {
    const auto [rc, err] =
        run_captured([]() -> int { throw InvalidArgument("bad pitch"); });
    EXPECT_EQ(rc, 1);
    EXPECT_EQ(err, "error: bad pitch\n\nusage: tool <board>\n");
}

TEST(CliArgs, RunToolReportsOutOfMemoryWithoutUsage) {
    const auto [rc, err] =
        run_captured([]() -> int { throw std::bad_alloc(); });
    EXPECT_EQ(rc, 1);
    EXPECT_EQ(err.rfind("error: out of memory (", 0), 0u) << err;
    EXPECT_EQ(err.find("usage"), std::string::npos) << err;
}

TEST(CliArgs, RunToolReportsOtherExceptionsWithoutUsage) {
    const auto [rc, err] = run_captured(
        []() -> int { throw std::runtime_error("journal write failed"); });
    EXPECT_EQ(rc, 1);
    EXPECT_EQ(err, "error: journal write failed\n");
}
