/**
 * @file
 * rp::api::Config tests: schema declaration, defaults < CLI layering,
 * unknown-key rejection, and the strict text parsing of values.
 */

#include <gtest/gtest.h>

#include "api/config.h"
#include "api/context.h"
#include "api/env.h"

namespace rp::api {
namespace {

ConfigSchema
testSchema()
{
    ConfigSchema schema;
    schema.add({"count", OptionType::Int, "10", "a count", 1.0, true});
    schema.add({"ratio", OptionType::Double, "1.5", "a ratio", 0.0,
                true});
    schema.add({"label", OptionType::String, "abc", "a label"});
    return schema;
}

TEST(ApiConfig, DefaultsAndTypedGetters)
{
    Config cfg{testSchema()};
    EXPECT_EQ(cfg.getInt("count"), 10);
    EXPECT_DOUBLE_EQ(cfg.getDouble("ratio"), 1.5);
    EXPECT_EQ(cfg.getString("label"), "abc");
    EXPECT_EQ(cfg.origin("count"), ConfigLayer::Default);
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
    EXPECT_EQ(cfg.getInt("count"), 1);
    EXPECT_EQ(cfg.origin("count"), ConfigLayer::Cli);
    EXPECT_THROW(cfg.set("ratio", "x1.5"), ConfigError);
    EXPECT_THROW(cfg.set("ratio", "-0.1"), ConfigError); // min 0
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
    schema.add({"k", OptionType::Int, "1", ""});
    EXPECT_THROW(schema.add({"k", OptionType::Int, "2", ""}),
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
}

TEST(ApiContext, DieSetComesFromResolvedConfigOnly)
{
    // The die set is a function of the resolved config alone, so the
    // "dies" entry result.json records reproduces it.
    core::ExperimentEngine::Options opts;
    opts.numThreads = 1;
    core::ExperimentEngine engine(opts);
    const ExperimentInfo info{"zzctx", "Context", "none", "test"};
    auto context = [&](Config cfg) {
        return ExperimentContext(info, std::move(cfg), engine,
                                 [](JobEvent &&) {});
    };

    Config dflt{baseSchema()};
    const ExperimentContext by_default = context(dflt);
    EXPECT_EQ(by_default.dies().size(), 3u);
    EXPECT_FALSE(by_default.allDiesSelected());

    Config flag{baseSchema()};
    flag.set("dies", "all");
    const ExperimentContext by_flag = context(flag);
    EXPECT_EQ(by_flag.dies().size(), device::allDies().size());
    EXPECT_TRUE(by_flag.allDiesSelected());
}

} // namespace
} // namespace rp::api
