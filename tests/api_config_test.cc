/**
 * @file
 * rp::api::Config tests: schema declaration, layered precedence
 * (defaults < env < CLI), unknown-key rejection, and the strict
 * env/text parsing that replaced the old atoi-based envInt.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "api/config.h"
#include "api/context.h"
#include "api/env.h"

namespace rp::api {
namespace {

/** setenv/unsetenv guard restoring the prior state. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        old_ = had_ ? old : "";
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_, old_;
    bool had_ = false;
};

ConfigSchema
testSchema()
{
    ConfigSchema schema;
    schema.add({"count", OptionType::Int, "10", "RP_TEST_COUNT",
                "a count", 1.0, true});
    schema.add({"ratio", OptionType::Double, "1.5", "RP_TEST_RATIO",
                "a ratio", 0.0, true});
    schema.add({"label", OptionType::String, "abc", "", "a label"});
    schema.add({"flag", OptionType::Bool, "false", "", "a switch"});
    return schema;
}

TEST(ApiConfig, DefaultsAndTypedGetters)
{
    ScopedEnv count_env("RP_TEST_COUNT", nullptr);
    ScopedEnv ratio_env("RP_TEST_RATIO", nullptr);
    Config cfg{testSchema()};
    cfg.loadEnv();
    EXPECT_EQ(cfg.getInt("count"), 10);
    EXPECT_DOUBLE_EQ(cfg.getDouble("ratio"), 1.5);
    EXPECT_EQ(cfg.getString("label"), "abc");
    EXPECT_FALSE(cfg.getBool("flag"));
    EXPECT_EQ(cfg.origin("count"), ConfigLayer::Default);
}

TEST(ApiConfig, EnvOverridesDefault)
{
    ScopedEnv count_env("RP_TEST_COUNT", "42");
    ScopedEnv ratio_env("RP_TEST_RATIO", "2.25");
    Config cfg{testSchema()};
    cfg.loadEnv();
    EXPECT_EQ(cfg.getInt("count"), 42);
    EXPECT_DOUBLE_EQ(cfg.getDouble("ratio"), 2.25);
    EXPECT_EQ(cfg.origin("count"), ConfigLayer::Env);
}

TEST(ApiConfig, CliBeatsEnvRegardlessOfOrder)
{
    ScopedEnv count_env("RP_TEST_COUNT", "42");
    {
        Config cfg{testSchema()};
        cfg.loadEnv();
        cfg.set("count", "7", ConfigLayer::Cli);
        EXPECT_EQ(cfg.getInt("count"), 7);
        EXPECT_EQ(cfg.origin("count"), ConfigLayer::Cli);
    }
    {
        // CLI first, env applied afterwards must not clobber it.
        Config cfg{testSchema()};
        cfg.set("count", "7", ConfigLayer::Cli);
        cfg.loadEnv();
        EXPECT_EQ(cfg.getInt("count"), 7);
        EXPECT_EQ(cfg.origin("count"), ConfigLayer::Cli);
    }
}

TEST(ApiConfig, UnknownKeyRejected)
{
    Config cfg{testSchema()};
    EXPECT_THROW(cfg.set("bogus", "1"), ConfigError);
    EXPECT_THROW(cfg.getInt("bogus"), ConfigError);
    EXPECT_THROW((void)cfg.origin("bogus"), ConfigError);
}

TEST(ApiConfig, TypeAndBoundValidation)
{
    Config cfg{testSchema()};
    EXPECT_THROW(cfg.set("count", "abc"), ConfigError);
    EXPECT_THROW(cfg.set("count", "12abc"), ConfigError);
    EXPECT_THROW(cfg.set("count", ""), ConfigError);
    EXPECT_THROW(cfg.set("count", "-3"), ConfigError);  // min 1
    EXPECT_THROW(cfg.set("count", "0"), ConfigError);   // min 1
    // Fits long long but not int: rejected, never truncated.
    EXPECT_THROW(cfg.set("count", "4294967296"), ConfigError);
    EXPECT_NO_THROW(cfg.set("count", "1"));
    EXPECT_THROW(cfg.set("ratio", "x1.5"), ConfigError);
    EXPECT_THROW(cfg.set("ratio", "-0.1"), ConfigError); // min 0
    EXPECT_THROW(cfg.set("flag", "maybe"), ConfigError);
    EXPECT_NO_THROW(cfg.set("flag", "true"));
    EXPECT_TRUE(cfg.getBool("flag"));
}

TEST(ApiConfig, BadEnvValueRaisesNamedError)
{
    ScopedEnv count_env("RP_TEST_COUNT", "lots");
    Config cfg{testSchema()};
    try {
        cfg.loadEnv();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("RP_TEST_COUNT"),
                  std::string::npos);
    }
}

TEST(ApiConfig, WrongTypedGetterRejected)
{
    Config cfg{testSchema()};
    EXPECT_THROW(cfg.getInt("label"), ConfigError);
    EXPECT_THROW(cfg.getDouble("count"), ConfigError);
}

TEST(ApiConfig, DuplicateSchemaKeyRejected)
{
    ConfigSchema schema;
    schema.add({"k", OptionType::Int, "1", "", ""});
    EXPECT_THROW(schema.add({"k", OptionType::Int, "2", "", ""}),
                 ConfigError);
}

TEST(ApiEnv, StrictParsing)
{
    EXPECT_EQ(parseInt("42", "x"), 42);
    EXPECT_EQ(parseInt(" 42 ", "x"), 42);
    EXPECT_EQ(parseInt("-7", "x"), -7);
    EXPECT_THROW(parseInt("4.2", "x"), ConfigError);
    EXPECT_THROW(parseInt("4 2", "x"), ConfigError);
    EXPECT_THROW(parseInt("", "x"), ConfigError);
    EXPECT_THROW(parseInt("999999999999999999999", "x"), ConfigError);
    EXPECT_DOUBLE_EQ(parseDouble("0.25", "x"), 0.25);
    EXPECT_THROW(parseDouble("nanx", "x"), ConfigError);
    EXPECT_TRUE(parseBool("YES", "x"));
    EXPECT_FALSE(parseBool("off", "x"));
}

TEST(ApiContext, BaseSchemaHasLegacyEnvAliases)
{
    ConfigSchema schema = baseSchema();
    ASSERT_NE(schema.find("locations"), nullptr);
    EXPECT_EQ(schema.find("locations")->envVar,
              "ROWPRESS_BENCH_LOCATIONS");
    ASSERT_NE(schema.find("threads"), nullptr);
    EXPECT_EQ(schema.find("threads")->envVar, "RP_THREADS");
    ASSERT_NE(schema.find("scale"), nullptr);
    EXPECT_EQ(schema.find("scale")->envVar, "ROWPRESS_BENCH_SCALE");
    ASSERT_NE(schema.find("seed"), nullptr);
    EXPECT_EQ(schema.find("seed")->envVar, "RP_SEED");
    ASSERT_NE(schema.find("dies"), nullptr);
    {
        // The retired ROWPRESS_SEED spelling is no longer read.
        ScopedEnv primary("RP_SEED", nullptr);
        ScopedEnv retired("ROWPRESS_SEED", "9");
        Config cfg{schema};
        cfg.loadEnv();
        EXPECT_EQ(cfg.getInt("seed"), 1);
        EXPECT_EQ(cfg.origin("seed"), ConfigLayer::Default);
    }
}

TEST(ApiContext, DieSetComesFromResolvedConfigOnly)
{
    // The die set is a function of the resolved config alone, so the
    // "dies" entry result.json records reproduces it.
    ScopedEnv dies("ROWPRESS_DIES", nullptr);
    ScopedEnv retired("ROWPRESS_ALL_DIES", "1");
    core::ExperimentEngine::Options opts;
    opts.numThreads = 1;
    core::ExperimentEngine engine(opts);
    const ExperimentInfo info{"zzctx", "Context", "none", "test"};
    auto context = [&](Config cfg) {
        return ExperimentContext(info, std::move(cfg), engine,
                                 [](JobEvent &&) {});
    };

    Config dflt{baseSchema()};
    dflt.loadEnv();
    const ExperimentContext by_default = context(dflt);
    EXPECT_EQ(by_default.dies().size(), 3u);
    EXPECT_FALSE(by_default.allDiesSelected());

    Config flag{baseSchema()};
    flag.set("dies", "all", ConfigLayer::Cli);
    const ExperimentContext by_flag = context(flag);
    EXPECT_EQ(by_flag.dies().size(), device::allDies().size());
    EXPECT_TRUE(by_flag.allDiesSelected());

    ScopedEnv all("ROWPRESS_DIES", "all");
    Config env{baseSchema()};
    env.loadEnv();
    EXPECT_EQ(env.origin("dies"), ConfigLayer::Env);
    EXPECT_TRUE(context(env).allDiesSelected());
}

} // namespace
} // namespace rp::api
