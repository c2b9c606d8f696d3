/**
 * @file
 * ResultSink tests: ASCII rendering, CSV artifact layout (slug
 * collisions, raw chr/export artifacts), JSON escaping and numeric
 * detection, and result.json parsed back through api/json.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "api/env.h"
#include "api/json.h"
#include "api/sink.h"
#include "chr/export.h"

namespace rp::api {
namespace {

namespace fs = std::filesystem;

ExperimentInfo
info()
{
    return {"sink_test", "Sink test", "none", "test"};
}

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p);
    std::stringstream body;
    body << in.rdbuf();
    return body.str();
}

TEST(ApiDataset, SlugifyNames)
{
    EXPECT_EQ(slugify("Mfr. S 8Gb B-Die single-sided @ 50C"),
              "mfr_s_8gb_b-die_single-sided_50c");
    EXPECT_EQ(slugify("Adapted configurations"),
              "adapted_configurations");
    EXPECT_EQ(slugify("///"), "dataset");
}

TEST(ApiDataset, RowsPaddedToHeader)
{
    Dataset d("x");
    d.header({"a", "b", "c"});
    d.row({"1"});
    ASSERT_EQ(d.rows[0].size(), 3u);
    EXPECT_EQ(d.rows[0][1], "");
}

TEST(ApiSink, TableSinkRendersBannerDatasetAndNotes)
{
    std::ostringstream os;
    TableSink sink(os);
    sink.beginExperiment(info());
    Dataset d("my table");
    d.header({"col"});
    d.row({"val"});
    sink.dataset(d);
    sink.note("a note\n");
    sink.endExperiment();
    const std::string text = os.str();
    EXPECT_NE(text.find("Sink test"), std::string::npos);
    EXPECT_NE(text.find("== my table =="), std::string::npos);
    EXPECT_NE(text.find("a note"), std::string::npos);
}

TEST(ApiSink, CsvSinkWritesDatasetsAndResolvesCollisions)
{
    const fs::path dir = fs::path(::testing::TempDir()) / "rp_csv_sink";
    fs::remove_all(dir);
    CsvSink sink(dir);
    sink.beginExperiment(info());

    Dataset d("Same Name");
    d.header({"h"});
    d.row({"1"});
    sink.dataset(d);
    Dataset d2("Same Name"); // collides after slugify
    d2.header({"h"});
    d2.row({"2"});
    sink.dataset(d2);
    sink.endExperiment();

    EXPECT_TRUE(fs::exists(dir / "sink_test" / "same_name.csv"));
    EXPECT_TRUE(fs::exists(dir / "sink_test" / "same_name_2.csv"));
    auto rec = chr::parseCsv(slurp(dir / "sink_test" / "same_name_2.csv"));
    ASSERT_EQ(rec.size(), 2u);
    EXPECT_EQ(rec[1][0], "2");
}

TEST(ApiSink, CsvSinkWritesRawArtifacts)
{
    const fs::path dir = fs::path(::testing::TempDir()) / "rp_raw_sink";
    fs::remove_all(dir);
    CsvSink sink(dir);
    sink.beginExperiment(info());
    sink.rawCsv("raw_overlap", [](std::ostream &os) {
        chr::writeOverlapCsv(os, "S-8Gb-B",
                             {{Time(7800000), 42, 0.0, 0.01}});
    });
    sink.endExperiment();
    const auto text = slurp(dir / "sink_test" / "raw_overlap.csv");
    auto rec = chr::parseCsv(text);
    ASSERT_EQ(rec.size(), 2u);
    EXPECT_EQ(rec[0][0], "die");
    EXPECT_EQ(rec[1][0], "S-8Gb-B");
    EXPECT_EQ(rec[1][2], "42");
}

TEST(ApiSink, TableAndJsonSinksIgnoreRawArtifacts)
{
    std::ostringstream os;
    TableSink table_sink(os);
    table_sink.rawCsv("x", [](std::ostream &o) { o << "boom\n"; });
    EXPECT_EQ(os.str(), "");
}

TEST(ApiSink, JsonNumericDetection)
{
    EXPECT_TRUE(looksNumeric("42"));
    EXPECT_TRUE(looksNumeric("-0.5"));
    EXPECT_TRUE(looksNumeric("1e5"));
    EXPECT_TRUE(looksNumeric("1.25E-3"));
    EXPECT_TRUE(looksNumeric("0"));
    EXPECT_FALSE(looksNumeric("36ns"));
    EXPECT_FALSE(looksNumeric("nan"));
    EXPECT_FALSE(looksNumeric("inf"));
    EXPECT_FALSE(looksNumeric(""));
    EXPECT_FALSE(looksNumeric("-"));
    EXPECT_FALSE(looksNumeric("+1"));
    EXPECT_FALSE(looksNumeric(".5"));
    EXPECT_FALSE(looksNumeric("1.2.3"));
    // strtod accepts these; the JSON grammar must not.
    EXPECT_FALSE(looksNumeric("0x1A"));
    EXPECT_FALSE(looksNumeric("007"));
    EXPECT_FALSE(looksNumeric("1."));
    EXPECT_FALSE(looksNumeric("1e"));
}

TEST(ApiSink, JsonEscaping)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(ApiSink, JsonSinkWritesWellFormedResult)
{
    const fs::path dir = fs::path(::testing::TempDir()) / "rp_json_sink";
    fs::remove_all(dir);
    JsonSink sink(dir);
    sink.beginExperiment(info());
    Dataset d("data");
    d.header({"name", "value"});
    d.row({"36ns", "381.7K"});
    d.row({"x", "1.25"});
    sink.dataset(d);
    sink.note("note with \"quotes\"\n");
    sink.endExperiment();

    const auto text = slurp(dir / "sink_test" / "result.json");
    EXPECT_NE(text.find("\"experiment\": \"sink_test\""),
              std::string::npos);
    // Strings quoted, numbers bare.
    EXPECT_NE(text.find("[\"36ns\", \"381.7K\"]"), std::string::npos);
    EXPECT_NE(text.find("[\"x\", 1.25]"), std::string::npos);
    EXPECT_NE(text.find("note with \\\"quotes\\\""),
              std::string::npos);
}

TEST(ApiSink, JsonSinkResultParsesBack)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "rp_json_sink_parse";
    fs::remove_all(dir);
    JsonSink sink(dir);
    sink.beginExperiment(info());
    sink.resolvedConfig({{"locations", "4", "cli"},
                         {"dies", "default", "default"},
                         {"scale", "0.25", "cli"}});
    Dataset d("data");
    d.header({"name", "value"});
    d.row({"36ns", "381.7K"});
    d.row({"x", "1.25"});
    sink.dataset(d);
    sink.note("first\n");
    sink.note("second");
    sink.endExperiment();

    const JsonValue doc =
        parseJson(slurp(dir / "sink_test" / "result.json"));
    EXPECT_EQ(doc.find("experiment")->text, "sink_test");
    EXPECT_EQ(doc.find("category")->text, "test");

    // Config values follow the cell rule; origins are strings.
    const JsonValue *config = doc.find("config");
    ASSERT_NE(config, nullptr);
    ASSERT_EQ(config->members.size(), 3u);
    EXPECT_EQ(config->members[0].first, "locations");
    EXPECT_EQ(config->find("locations")->find("value")->kind,
              JsonValue::Kind::Number);
    EXPECT_EQ(config->find("locations")->find("origin")->text, "cli");
    EXPECT_EQ(config->find("dies")->find("value")->kind,
              JsonValue::Kind::String);
    EXPECT_EQ(config->find("scale")->find("value")->text, "0.25");
    EXPECT_EQ(config->find("scale")->find("value")->kind,
              JsonValue::Kind::Number);

    const JsonValue *datasets = doc.find("datasets");
    ASSERT_NE(datasets, nullptr);
    ASSERT_EQ(datasets->items.size(), 1u);
    const JsonValue &data = datasets->items[0];
    EXPECT_EQ(data.find("name")->text, "data");
    ASSERT_EQ(data.find("columns")->items.size(), 2u);
    EXPECT_EQ(data.find("columns")->items[1].kind,
              JsonValue::Kind::String);
    const JsonValue *rows = data.find("rows");
    ASSERT_EQ(rows->items.size(), 2u);
    EXPECT_EQ(rows->items[0].items[0].kind, JsonValue::Kind::String);
    EXPECT_EQ(rows->items[0].items[0].text, "36ns");
    EXPECT_EQ(rows->items[0].items[1].kind, JsonValue::Kind::String);
    EXPECT_EQ(rows->items[0].items[1].text, "381.7K");
    EXPECT_EQ(rows->items[1].items[1].kind, JsonValue::Kind::Number);
    EXPECT_EQ(rows->items[1].items[1].text, "1.25");

    const JsonValue *notes = doc.find("notes");
    ASSERT_NE(notes, nullptr);
    ASSERT_EQ(notes->items.size(), 2u);
    EXPECT_EQ(notes->items[0].text, "first\n");
    EXPECT_EQ(notes->items[1].text, "second");
}

TEST(ApiSink, MakeSinkFactory)
{
    std::ostringstream os;
    EXPECT_EQ(makeSink("table", "/tmp", os)->formatName(), "table");
    EXPECT_EQ(makeSink("csv", "/tmp", os)->formatName(), "csv");
    EXPECT_EQ(makeSink("json", "/tmp", os)->formatName(), "json");
    EXPECT_THROW(makeSink("yaml", "/tmp", os), ConfigError);
}

} // namespace
} // namespace rp::api
