/**
 * @file
 * `rowpress` CLI tests against dummy registered experiments: list
 * output, glob selection, run exit codes (success, unknown
 * experiment, unknown flag), flags and schema defaults through the
 * CLI, and sink artifact writing.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "api/cli.h"
#include "api/context.h"
#include "api/registry.h"
#include "chr/export.h"
#include "persist/cache.h"

namespace rp::api {
namespace {

namespace fs = std::filesystem;

int g_runs_a = 0;
int g_last_knob = -1;

/** Register two dummy experiments once for the whole test binary. */
struct RegisterDummies
{
    RegisterDummies()
    {
        ExperimentRegistry::instance().add(
            {{"zzztest_a", "Dummy experiment A", "none", "test"},
             [](ConfigSchema &schema) {
                 schema.add({"knob", OptionType::Int, "5", "dummy knob",
                             0.0, true});
             },
             [](ExperimentContext &ctx) {
                 ++g_runs_a;
                 g_last_knob = ctx.config().getInt("knob");
                 Dataset d("dummy table");
                 d.header({"k", "v"});
                 d.rowf("knob", g_last_knob);
                 d.row({"text", "with,comma"});
                 ctx.emit(d);
                 ctx.note("dummy note\n");
             }});
        ExperimentRegistry::instance().add(
            {{"zzztest_b", "Dummy experiment B", "none", "test"},
             nullptr,
             [](ExperimentContext &ctx) {
                 Dataset d("b table");
                 d.header({"x"});
                 d.row({"1"});
                 ctx.emit(d);
             }});
    }
};
const RegisterDummies register_dummies;

int
cli(const std::vector<std::string> &args, std::string *out_text = nullptr)
{
    std::ostringstream out, err;
    const int rc = runCli(args, out, err);
    if (out_text)
        *out_text = out.str() + err.str();
    return rc;
}

TEST(ApiCli, ListShowsRegisteredExperiments)
{
    std::string text;
    ASSERT_EQ(cli({"list"}, &text), 0);
    EXPECT_NE(text.find("zzztest_a"), std::string::npos);
    EXPECT_NE(text.find("Dummy experiment A"), std::string::npos);
    EXPECT_NE(text.find("zzztest_b"), std::string::npos);
}

TEST(ApiCli, ListFiltersByGlob)
{
    std::string text;
    ASSERT_EQ(cli({"list", "zzztest_b"}, &text), 0);
    EXPECT_EQ(text.find("zzztest_a"), std::string::npos);
    EXPECT_NE(text.find("zzztest_b"), std::string::npos);
    // Multiple patterns union; unknown flags are rejected.
    ASSERT_EQ(cli({"list", "zzztest_a", "zzztest_b"}, &text), 0);
    EXPECT_NE(text.find("zzztest_a"), std::string::npos);
    EXPECT_NE(text.find("zzztest_b"), std::string::npos);
    EXPECT_EQ(cli({"list", "--category", "test"}), 2);
}

TEST(ApiCli, FlagRejectionPrecedesAnyRun)
{
    // zzztest_b does not declare --knob: the whole invocation must
    // fail before zzztest_a (selected first) runs.
    const int before = g_runs_a;
    EXPECT_EQ(cli({"run", "zzztest_a", "zzztest_b", "--knob", "1"}),
              2);
    EXPECT_EQ(g_runs_a, before);
}

TEST(ApiCli, UnknownCommandAndExperimentExitCode2)
{
    EXPECT_EQ(cli({"frobnicate"}), 2);
    EXPECT_EQ(cli({"bench"}), 2);
    EXPECT_EQ(cli({"run", "zzz_does_not_exist"}), 2);
    EXPECT_EQ(cli({"run"}), 2);
    // The usage text advertises only commands cliMain accepts.
    std::string text;
    ASSERT_EQ(cli({"help"}, &text), 0);
    EXPECT_NE(text.find("  run "), std::string::npos);
    EXPECT_EQ(text.find("  bench"), std::string::npos);
}

TEST(ApiCli, UnknownFlagRejectedWithExitCode2)
{
    std::string text;
    EXPECT_EQ(cli({"run", "zzztest_a", "--bogus", "1"}, &text), 2);
    EXPECT_NE(text.find("--bogus"), std::string::npos);
    // zzztest_b does not declare --knob.
    EXPECT_EQ(cli({"run", "zzztest_b", "--knob", "1"}), 2);
    // Malformed value of a declared flag.
    EXPECT_EQ(cli({"run", "zzztest_a", "--knob", "x"}), 2);
    // Missing value.
    EXPECT_EQ(cli({"run", "zzztest_a", "--knob"}), 2);
}

TEST(ApiCli, JobPolicyOutOfRangeExitCode2)
{
    // Rejected before the job runs: by Service::submit, or by the flag
    // parse when the value does not fit an int (2^32 would wrap to 0,
    // no deadline).  The retired retry flags are now undeclared
    // options, rejected like any other.
    const int before = g_runs_a;
    for (const auto &[flag, value, error] :
         std::vector<std::tuple<const char *, const char *, const char *>>{
             {"--deadline-ms", "-1", "deadline"},
             {"--deadline-ms", "4294967296", "does not fit an int"},
             {"--max-attempts", "3", "does not accept --max-attempts"},
             {"--retry-backoff-ms", "1",
              "does not accept --retry-backoff-ms"}}) {
        std::string text;
        EXPECT_EQ(cli({"run", "zzztest_a", "--threads", "1", flag, value},
                      &text),
                  2)
            << flag << " " << value;
        EXPECT_NE(text.find(error), std::string::npos) << text;
    }
    EXPECT_EQ(g_runs_a, before);
}

TEST(ApiCli, RunExecutesAndReportsCompletion)
{
    const int before = g_runs_a;
    std::string text;
    ASSERT_EQ(cli({"run", "zzztest_a", "--threads", "1"}, &text), 0);
    EXPECT_EQ(g_runs_a, before + 1);
    EXPECT_NE(text.find("Dummy experiment A"), std::string::npos);
    EXPECT_NE(text.find("dummy table"), std::string::npos);
    EXPECT_NE(text.find("dummy note"), std::string::npos);
    EXPECT_NE(text.find("[rowpress] zzztest_a completed"),
              std::string::npos);
}

TEST(ApiCli, TimeFlagPrintsElapsedLine)
{
    // --time prints "elapsed: X ms" just before each completion line,
    // whatever the formats; the total line closes the output.
    const fs::path out = fs::path(::testing::TempDir()) / "rp_cli_time";
    for (const char *format : {"table", "csv"}) {
        std::string text;
        ASSERT_EQ(cli({"run", "zzztest_b", "--threads", "1", "--time",
                       "--format", format, "--out", out.string()},
                      &text),
                  0)
            << text;
        const auto elapsed = text.find("elapsed: ");
        const auto completed = text.find("[rowpress] zzztest_b completed");
        ASSERT_NE(elapsed, std::string::npos) << format;
        ASSERT_NE(completed, std::string::npos) << format;
        EXPECT_EQ(text.find('\n', elapsed) + 1, completed) << format;
        EXPECT_NE(text.find("[rowpress] total: "), std::string::npos);
    }
    std::string text;
    ASSERT_EQ(cli({"run", "zzztest_b", "--threads", "1"}, &text), 0);
    EXPECT_EQ(text.find("elapsed: "), std::string::npos);
}

TEST(ApiCli, GlobRunsBothDummies)
{
    const int before = g_runs_a;
    std::string text;
    ASSERT_EQ(cli({"run", "zzztest_?", "--threads", "1"}, &text), 0);
    EXPECT_EQ(g_runs_a, before + 1);
    EXPECT_NE(text.find("b table"), std::string::npos);
}

TEST(ApiCli, FlagSetsKnobAndDefaultHoldsWithoutIt)
{
    ASSERT_EQ(cli({"run", "zzztest_a", "--threads", "1", "--knob=23"}),
              0);
    EXPECT_EQ(g_last_knob, 23);
    ASSERT_EQ(cli({"run", "zzztest_a", "--threads", "1"}), 0);
    EXPECT_EQ(g_last_knob, 5); // schema default
}

TEST(ApiCli, CsvAndJsonArtifactsWritten)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "rp_cli_artifacts";
    fs::remove_all(dir);
    ASSERT_EQ(cli({"run", "zzztest_a", "--threads", "1", "--format",
                   "csv,json", "--out", dir.string()}),
              0);

    const fs::path csv = dir / "zzztest_a" / "dummy_table.csv";
    ASSERT_TRUE(fs::exists(csv));
    ASSERT_GT(fs::file_size(csv), 0u);
    std::ifstream in(csv);
    std::stringstream body;
    body << in.rdbuf();
    auto records = chr::parseCsv(body.str());
    ASSERT_EQ(records.size(), 3u); // header + 2 rows
    EXPECT_EQ(records[0].size(), 2u);
    EXPECT_EQ(records[1][0], "knob");
    EXPECT_EQ(records[2][1], "with,comma"); // quoted comma round-trip

    const fs::path json = dir / "zzztest_a" / "result.json";
    ASSERT_TRUE(fs::exists(json));
    std::ifstream jin(json);
    std::stringstream jbody;
    jbody << jin.rdbuf();
    EXPECT_NE(jbody.str().find("\"experiment\": \"zzztest_a\""),
              std::string::npos);
    EXPECT_NE(jbody.str().find("dummy note"), std::string::npos);
}

TEST(ApiCli, CacheDirIsAFlagOfTheProcess)
{
    // No experiment declares cache-dir, yet `run` takes it for every
    // selected experiment, and an unusable directory fails before any
    // of them runs.
    std::string text;
    ASSERT_EQ(cli({"list", "--format", "json"}, &text), 0);
    EXPECT_EQ(text.find("\"cache-dir\""), std::string::npos);

    const fs::path dir = fs::path(::testing::TempDir()) / "rp_cli_cache";
    fs::remove_all(dir);
    const int runs = g_runs_a;
    ASSERT_EQ(cli({"run", "zzztest_a", "zzztest_b", "--cache-dir",
                   dir.string()},
                  &text),
              0)
        << text;
    EXPECT_EQ(g_runs_a, runs + 1);
    EXPECT_TRUE(persist::SnapshotCache::instance().stats().enabled);
    EXPECT_TRUE(fs::is_directory(dir));

    const fs::path plain = dir / "plainfile";
    std::ofstream(plain) << "x";
    EXPECT_EQ(cli({"run", "zzztest_a", "--cache-dir",
                   (plain / "sub").string()},
                  &text),
              2);
    EXPECT_NE(text.find("not a usable directory"), std::string::npos)
        << text;
    EXPECT_EQ(g_runs_a, runs + 1);
    persist::SnapshotCache::instance().configure("");
}

TEST(ApiCli, UnknownFormatRejected)
{
    EXPECT_EQ(cli({"run", "zzztest_a", "--format", "xml"}), 2);
}

TEST(ApiRegistry, GlobMatcher)
{
    EXPECT_TRUE(globMatch("fig06", "fig06"));
    EXPECT_TRUE(globMatch("fig*", "fig06"));
    EXPECT_TRUE(globMatch("*", "table3"));
    EXPECT_TRUE(globMatch("fig?6", "fig06"));
    EXPECT_TRUE(globMatch("*6", "fig06"));
    EXPECT_FALSE(globMatch("fig?6", "fig006"));
    EXPECT_FALSE(globMatch("fig*", "table3"));
    EXPECT_FALSE(globMatch("fig06", "fig0"));
    EXPECT_FALSE(globMatch("", "x"));
    EXPECT_TRUE(globMatch("**", "anything"));
}

TEST(ApiRegistry, DuplicateIdRejected)
{
    EXPECT_THROW(ExperimentRegistry::instance().add(
                     {{"zzztest_a", "dup", "", "test"}, nullptr,
                      [](ExperimentContext &) {}}),
                 std::logic_error);
}

} // namespace
} // namespace rp::api
