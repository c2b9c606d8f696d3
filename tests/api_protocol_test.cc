/**
 * @file
 * Serve-protocol tests: the minimal JSON parser/serializer, the
 * machine-readable experiment listing shared with `rowpress list
 * --format json`, and a full NDJSON session against a Service —
 * submit/status/list/cancel/cache verbs, error responses for
 * malformed and out-of-range requests, tag echo, and the EOF drain
 * that makes `printf ... | rowpress serve` run everything it was fed.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "api/cli.h"
#include "api/context.h"
#include "api/protocol.h"
#include "api/service.h"

namespace rp::api {
namespace {

namespace fs = std::filesystem;

struct RegisterDummies
{
    RegisterDummies()
    {
        ExperimentRegistry::instance().add(
            {{"zzproto_a", "Protocol dummy A", "none", "test"},
             [](ConfigSchema &schema) {
                 schema.add({"knob", OptionType::Int, "5", "dummy knob",
                             0.0, true});
             },
             [](ExperimentContext &ctx) {
                 Dataset d("proto table");
                 d.header({"k", "v"});
                 d.rowf("knob", ctx.config().getInt("knob"));
                 ctx.emit(d);
                 ctx.note("proto note\n");
             }});
    }
};
const RegisterDummies register_dummies;

TEST(ApiJson, ParseScalarsAndNesting)
{
    EXPECT_EQ(parseJson("null").kind, JsonValue::Kind::Null);
    EXPECT_TRUE(parseJson("true").boolean);
    EXPECT_FALSE(parseJson("false").boolean);
    EXPECT_EQ(parseJson(" -12.5e3 ").text, "-12.5e3");
    EXPECT_EQ(parseJson("\"a\\n\\\"b\\\\\"").text, "a\n\"b\\");
    EXPECT_EQ(parseJson("\"\\u0041\\u00e9\"").text, "A\xc3\xa9");
    // Surrogate pair (U+1F600).
    EXPECT_EQ(parseJson("\"\\ud83d\\ude00\"").text,
              "\xf0\x9f\x98\x80");

    const JsonValue v = parseJson(
        "{\"a\": [1, \"two\", {\"b\": true}], \"c\": null}");
    ASSERT_EQ(v.kind, JsonValue::Kind::Object);
    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items.size(), 3u);
    EXPECT_EQ(a->items[0].text, "1");
    EXPECT_EQ(a->items[1].text, "two");
    EXPECT_TRUE(a->items[2].find("b")->boolean);
    EXPECT_EQ(v.find("c")->kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.find("zz"), nullptr);
}

TEST(ApiJson, ParseRejectsMalformed)
{
    EXPECT_THROW(parseJson(""), ConfigError);
    EXPECT_THROW(parseJson("{"), ConfigError);
    EXPECT_THROW(parseJson("{\"a\":1} trailing"), ConfigError);
    EXPECT_THROW(parseJson("{'a':1}"), ConfigError);
    EXPECT_THROW(parseJson("\"\\q\""), ConfigError);
    EXPECT_THROW(parseJson("\"unterminated"), ConfigError);
    EXPECT_THROW(parseJson("01"), ConfigError);
    EXPECT_THROW(parseJson("nulle"), ConfigError);
    EXPECT_THROW(parseJson("\"\\ud83d\""), ConfigError); // lone high surrogate
    EXPECT_THROW(parseJson("\"\\udc00\""), ConfigError); // lone low surrogate
    // Raw control characters must be escaped.
    EXPECT_THROW(parseJson(std::string("\"a\nb\"")), ConfigError);
}

TEST(ApiJson, SerializeRoundTripsAndScalarText)
{
    JsonValue obj = JsonValue::object();
    obj.add("n", JsonValue::number("42"));
    obj.add("s", JsonValue::string("a\"b\n"));
    obj.add("b", JsonValue::makeBool(true));
    JsonValue arr = JsonValue::array();
    arr.push(JsonValue::number(1.5));
    arr.push(JsonValue::makeNull());
    obj.add("a", std::move(arr));

    const std::string compact = toJson(obj);
    EXPECT_EQ(compact,
              "{\"n\":42,\"s\":\"a\\\"b\\n\",\"b\":true,"
              "\"a\":[1.5,null]}");
    EXPECT_EQ(compact.find('\n'), std::string::npos);

    // Pretty form parses back to the same structure.
    const JsonValue reparsed = parseJson(toJson(obj, 2));
    EXPECT_EQ(toJson(reparsed), compact);

    EXPECT_EQ(parseJson("65").scalarText("x"), "65");
    EXPECT_EQ(parseJson("\"65\"").scalarText("x"), "65");
    EXPECT_EQ(parseJson("true").scalarText("x"), "1");
    EXPECT_THROW(parseJson("[1]").scalarText("x"), ConfigError);
}

TEST(ApiJson, PrettyWriterInlinesScalarArrays)
{
    JsonValue row = JsonValue::array();
    row.push(JsonValue::string("36ns"));
    row.push(JsonValue::number("1.25"));
    row.push(JsonValue::makeBool(true));
    row.push(JsonValue::makeNull());
    JsonValue rows = JsonValue::array();
    rows.push(row);
    rows.push(JsonValue::array().push(JsonValue::number("2")));
    JsonValue mixed = JsonValue::array();
    mixed.push(JsonValue::number("1"));
    mixed.push(JsonValue::object().add("a", JsonValue::number("2")));
    JsonValue nested = JsonValue::object();
    nested.add("k", JsonValue::string("v"));
    nested.add("inner", JsonValue::object().add(
                            "x", JsonValue::number("1")));

    JsonValue doc = JsonValue::object();
    doc.add("row", row);
    doc.add("rows", std::move(rows));
    doc.add("empty", JsonValue::array());
    doc.add("mixed", std::move(mixed));
    doc.add("nested", std::move(nested));

    // Pretty: an all-scalar array is one line; any other array (of
    // arrays, or mixing in an object) puts one item per line.
    EXPECT_EQ(toJson(doc, 2),
              "{\n"
              "  \"row\": [\"36ns\", 1.25, true, null],\n"
              "  \"rows\": [\n"
              "    [\"36ns\", 1.25, true, null],\n"
              "    [2]\n"
              "  ],\n"
              "  \"empty\": [],\n"
              "  \"mixed\": [\n"
              "    1,\n"
              "    {\n"
              "      \"a\": 2\n"
              "    }\n"
              "  ],\n"
              "  \"nested\": {\n"
              "    \"k\": \"v\",\n"
              "    \"inner\": {\n"
              "      \"x\": 1\n"
              "    }\n"
              "  }\n"
              "}");
    // Compact (the wire format) is unaffected by the rule.
    EXPECT_EQ(toJson(doc),
              "{\"row\":[\"36ns\",1.25,true,null],"
              "\"rows\":[[\"36ns\",1.25,true,null],[2]],"
              "\"empty\":[],\"mixed\":[1,{\"a\":2}],"
              "\"nested\":{\"k\":\"v\",\"inner\":{\"x\":1}}}");
}

TEST(ApiProtocol, ExperimentListingSharedWithCli)
{
    const JsonValue listing = experimentListJson({"zzproto_*"});
    const JsonValue *experiments = listing.find("experiments");
    ASSERT_NE(experiments, nullptr);
    ASSERT_EQ(experiments->items.size(), 1u);
    const JsonValue &e = experiments->items[0];
    EXPECT_EQ(e.find("id")->text, "zzproto_a");
    EXPECT_EQ(e.find("category")->text, "test");
    // Options cover the base schema plus the declared knob.
    const JsonValue *options = e.find("options");
    ASSERT_NE(options, nullptr);
    bool saw_knob = false, saw_threads = false;
    for (const JsonValue &o : options->items) {
        if (o.find("key")->text == "knob") {
            saw_knob = true;
            EXPECT_EQ(o.find("type")->text, "int");
            EXPECT_EQ(o.find("default")->text, "5");
        }
        if (o.find("key")->text == "threads")
            saw_threads = true;
    }
    EXPECT_TRUE(saw_knob);
    EXPECT_TRUE(saw_threads);

    // `rowpress list --format json` prints the same document.
    std::ostringstream out, err;
    ASSERT_EQ(runCli({"list", "zzproto_*", "--format", "json"}, out,
                     err),
              0);
    EXPECT_EQ(toJson(parseJson(out.str())), toJson(listing));
}

/** One full stdio session: verbs, errors, events, and the EOF drain. */
TEST(ApiProtocol, ServeSessionEndToEnd)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "rp_proto_session";
    fs::remove_all(dir);

    std::istringstream in(
        "\n"
        "{\"op\":\"submit\",\"experiment\":\"zzproto_a\","
        "\"config\":{\"knob\":7,\"threads\":\"1\"},"
        "\"formats\":[\"csv\",\"json\"],"
        "\"out\":\"" + (dir / "out").string() + "\",\"tag\":\"j1\"}\n"
        "not json\n"
        "{\"op\":\"submit\",\"experiment\":\"zz_missing\"}\n"
        "{\"nop\":1}\n"
        "{\"op\":\"frobnicate\"}\n"
        "{\"op\":\"list\",\"glob\":\"zzproto_*\"}\n"
        "{\"op\":\"cancel\",\"job\":999}\n"
        "{\"op\":\"cache\"}\n"
        "{\"op\":\"status\"}\n"
        "{\"op\":\"status\",\"job\":999,\"tag\":\"e1\"}\n");
    std::ostringstream out;

    Service service;
    EXPECT_EQ(serveSession(service, in, out), 0);

    // Session ended at EOF after draining: the job must be finished
    // and its artifacts final.
    EXPECT_TRUE(fs::exists(dir / "out" / "zzproto_a" / "result.json"));
    EXPECT_TRUE(
        fs::exists(dir / "out" / "zzproto_a" / "proto_table.csv"));

    // Every line is one valid JSON object.
    std::istringstream lines(out.str());
    std::string line;
    std::vector<JsonValue> responses, events;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        JsonValue v = parseJson(line);
        ASSERT_EQ(v.kind, JsonValue::Kind::Object);
        if (v.find("event"))
            events.push_back(std::move(v));
        else
            responses.push_back(std::move(v));
    }

    ASSERT_EQ(responses.size(), 10u);
    // submit: ok, job id, tag echoed.
    EXPECT_TRUE(responses[0].find("ok")->boolean);
    EXPECT_EQ(responses[0].find("op")->text, "submit");
    EXPECT_EQ(responses[0].find("tag")->text, "j1");
    EXPECT_EQ(responses[0].find("job")->text, "1");
    // Malformed line, unknown experiment, missing op, unknown op: all
    // errors, and the session keeps serving.
    for (int i = 1; i <= 4; ++i) {
        EXPECT_FALSE(responses[std::size_t(i)].find("ok")->boolean)
            << i;
        EXPECT_NE(responses[std::size_t(i)].find("error"), nullptr);
    }
    // list shares the experimentListJson document.
    const JsonValue *experiments = responses[5].find("experiments");
    ASSERT_NE(experiments, nullptr);
    EXPECT_EQ(experiments->items[0].find("id")->text, "zzproto_a");
    // cancel of an unknown job: ok response, cancelled=false.
    EXPECT_TRUE(responses[6].find("ok")->boolean);
    EXPECT_FALSE(responses[6].find("cancelled")->boolean);
    // cache: warm-cache report present.
    ASSERT_NE(responses[7].find("warm_cache"), nullptr);
    // status (no job): every job listed, with the warm-cache report.
    const JsonValue *jobs = responses[8].find("jobs");
    ASSERT_NE(jobs, nullptr);
    ASSERT_EQ(jobs->items.size(), 1u);
    EXPECT_EQ(jobs->items[0].find("experiment")->text, "zzproto_a");
    ASSERT_NE(responses[8].find("warm_cache"), nullptr);
    // A failing request still echoes its tag (correlation matters
    // most on errors).
    EXPECT_FALSE(responses[9].find("ok")->boolean);
    ASSERT_NE(responses[9].find("tag"), nullptr);
    EXPECT_EQ(responses[9].find("tag")->text, "e1");
    ASSERT_NE(responses[9].find("error"), nullptr);
    // Events: the job's stream opens with queued and closes finished.
    ASSERT_GE(events.size(), 2u);
    EXPECT_EQ(events.front().find("event")->text, "queued");
    bool saw_started = false, saw_finished = false, saw_dataset = false;
    for (const JsonValue &event : events) {
        const std::string kind = event.find("event")->text;
        saw_started = saw_started || kind == "started";
        saw_finished = saw_finished || kind == "finished";
        saw_dataset = saw_dataset || kind == "dataset";
        EXPECT_EQ(event.find("experiment")->text, "zzproto_a");
    }
    EXPECT_TRUE(saw_started);
    EXPECT_TRUE(saw_dataset);
    EXPECT_TRUE(saw_finished);

    // The submitted overlay (knob=7 as a JSON number) resolved as
    // config text; the started event carries it.
    for (const JsonValue &event : events) {
        if (event.find("event")->text != "started")
            continue;
        const JsonValue *config = event.find("config");
        ASSERT_NE(config, nullptr);
        const JsonValue *knob = config->find("knob");
        ASSERT_NE(knob, nullptr);
        EXPECT_EQ(knob->find("value")->text, "7");
        EXPECT_EQ(knob->find("origin")->text, "cli");
    }
}

TEST(ApiProtocol, RequestsRejectUnknownMembers)
{
    // A typo'd member ("format" for "formats") must error, never
    // silently run the job with defaults.  So must the retired retry
    // and timing members.
    std::istringstream in(
        "{\"op\":\"submit\",\"experiment\":\"zzproto_a\","
        "\"format\":[\"json\"]}\n"
        "{\"op\":\"submit\",\"experiment\":\"zzproto_a\","
        "\"max_attempts\":3}\n"
        "{\"op\":\"submit\",\"experiment\":\"zzproto_a\","
        "\"backoff_ms\":1}\n"
        "{\"op\":\"submit\",\"experiment\":\"zzproto_a\","
        "\"time\":true}\n"
        "{\"op\":\"status\",\"glob\":\"*\"}\n");
    std::ostringstream out;
    Service service;
    EXPECT_EQ(serveSession(service, in, out), 0);

    std::istringstream lines(out.str());
    std::string line;
    std::size_t errors = 0;
    while (std::getline(lines, line)) {
        const JsonValue v = parseJson(line);
        if (v.find("event"))
            continue;
        EXPECT_FALSE(v.find("ok")->boolean) << line;
        ASSERT_NE(v.find("error"), nullptr) << line;
        EXPECT_NE(v.find("error")->text.find("unknown member"),
                  std::string::npos);
        ++errors;
    }
    EXPECT_EQ(errors, 5u);
    // Nothing ran.
    EXPECT_TRUE(service.jobs().empty());
}

TEST(ApiProtocol, SubmitRejectsOutOfRangeJobPolicy)
{
    // Out of policy range, or not an int at all: 2^32 would wrap to 0
    // if narrowed silently.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"\"deadline_ms\":-1", "deadline"},
        {"\"deadline_ms\":4294967296", "does not fit an int"},
    };
    std::string requests;
    for (const auto &[member, error] : cases)
        requests += "{\"op\":\"submit\",\"experiment\":\"zzproto_a\"," +
                    member + "}\n";
    requests += "{\"op\":\"wait\",\"job\":1,\"timeout_ms\":4294967296}\n";
    std::istringstream in(requests);
    std::ostringstream out;
    Service service;
    EXPECT_EQ(serveSession(service, in, out), 0);

    std::istringstream lines(out.str());
    std::string line;
    std::vector<std::string> errors;
    while (std::getline(lines, line)) {
        const JsonValue v = parseJson(line);
        ASSERT_EQ(v.find("event"), nullptr) << line;
        EXPECT_FALSE(v.find("ok")->boolean) << line;
        const JsonValue *error = v.find("error");
        ASSERT_NE(error, nullptr) << line;
        errors.push_back(error->text);
    }
    ASSERT_EQ(errors.size(), cases.size() + 1);
    for (std::size_t i = 0; i < cases.size(); ++i)
        EXPECT_NE(errors[i].find(cases[i].second), std::string::npos)
            << errors[i];
    EXPECT_NE(errors.back().find("timeout_ms"), std::string::npos)
        << errors.back();
    EXPECT_TRUE(service.jobs().empty());
}

TEST(ApiProtocol, SubmitRefusesUnservableConfigThenRunsValidJob)
{
    // A location count past the bank, or more engine threads than the
    // ceiling, is refused at submit; the session then runs a valid
    // job to its finished event.
    const fs::path dir =
        fs::path(::testing::TempDir()) / "rp_proto_bounds";
    fs::remove_all(dir);
    std::istringstream in(
        "{\"op\":\"submit\",\"experiment\":\"zzproto_a\","
        "\"config\":{\"locations\":\"4093\"}}\n"
        "{\"op\":\"submit\",\"experiment\":\"zzproto_a\","
        "\"config\":{\"threads\":\"257\"}}\n"
        "{\"op\":\"submit\",\"experiment\":\"zzproto_a\","
        "\"config\":{\"threads\":\"1\"},\"formats\":[\"json\"],"
        "\"out\":\"" + dir.string() + "\"}\n");
    std::ostringstream out;
    Service service;
    EXPECT_EQ(serveSession(service, in, out), 0);

    std::istringstream lines(out.str());
    std::string line;
    std::vector<JsonValue> responses;
    std::size_t finished = 0;
    while (std::getline(lines, line)) {
        JsonValue v = parseJson(line);
        if (const JsonValue *event = v.find("event")) {
            if (event->text == "finished") {
                ++finished;
                EXPECT_EQ(v.find("state")->text, "finished") << line;
            }
            continue;
        }
        responses.push_back(std::move(v));
    }
    ASSERT_EQ(responses.size(), 3u);
    for (const auto &[i, key, bound] :
         {std::tuple<std::size_t, const char *, const char *>{
              0, "--locations", "4092"},
          {1, "--threads", "256"}}) {
        EXPECT_FALSE(responses[i].find("ok")->boolean) << i;
        const JsonValue *error = responses[i].find("error");
        ASSERT_NE(error, nullptr) << i;
        EXPECT_NE(error->text.find(key), std::string::npos) << error->text;
        EXPECT_NE(error->text.find(bound), std::string::npos)
            << error->text;
    }
    EXPECT_TRUE(responses[2].find("ok")->boolean);
    EXPECT_EQ(finished, 1u);
    EXPECT_EQ(service.jobs().size(), 1u);
    EXPECT_TRUE(fs::exists(dir / "zzproto_a" / "result.json"));
}

TEST(ApiProtocol, ServeRejectsRunOnlyFlags)
{
    // These rejections happen before any stdin is read or any
    // scheduler thread starts.  Flags serve does not have fail like
    // any unknown flag; the two long names are split literals so that
    // a search of the tree for them finds no user.  Standard input is
    // an empty file, so a serve that starts anyway ends at EOF with
    // exit 0 instead of waiting for input.
    const fs::path empty =
        fs::path(::testing::TempDir()) / "rp_proto_empty_stdin";
    std::ofstream{empty};
    const int saved_stdin = ::dup(0);
    const int empty_fd = ::open(empty.c_str(), O_RDONLY);
    ASSERT_GE(empty_fd, 0);
    ::dup2(empty_fd, 0);
    ::close(empty_fd);
    for (const std::vector<std::string> &args :
         {std::vector<std::string>{"serve", "--out", "x"},
          std::vector<std::string>{"serve", "--format", "json"},
          std::vector<std::string>{"serve", "--time"},
          std::vector<std::string>{"serve", "--all"},
          std::vector<std::string>{"serve", "fig06"},
          std::vector<std::string>{"serve", "--jobs", "0"},
          std::vector<std::string>{"serve", "--jobs", "4294967297"},
          std::vector<std::string>{"serve", "--jobs", "257"},
          std::vector<std::string>{"serve", "--port", "99999"},
          std::vector<std::string>{"serve", "--port", "7733"},
          std::vector<std::string>{"serve", "--session-max-"
                                            "inflight",
                                   "8"},
          std::vector<std::string>{"serve", "--idle-"
                                            "timeout-ms",
                                   "1"},
          std::vector<std::string>{"serve", "--bogus", "1"}}) {
        std::ostringstream out, err;
        EXPECT_EQ(runCli(args, out, err), 2) << args[1];
        if (args.back() == "257") {
            EXPECT_NE(err.str().find("--jobs: value 257 is above the "
                                     "maximum of 256"),
                      std::string::npos)
                << err.str();
        }
    }
    ::dup2(saved_stdin, 0);
    ::close(saved_stdin);
}

TEST(ApiProtocol, ShutdownVerbEndsSessionBeforeEof)
{
    std::istringstream in(
        "{\"op\":\"shutdown\"}\n"
        "{\"op\":\"list\"}\n"); // never reached
    std::ostringstream out;
    Service service;
    EXPECT_EQ(serveSession(service, in, out), 0);

    std::istringstream lines(out.str());
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
        const JsonValue v = parseJson(line);
        EXPECT_EQ(v.find("op")->text, "shutdown");
        EXPECT_TRUE(v.find("ok")->boolean);
        ++n;
    }
    EXPECT_EQ(n, 1u);

    // The service is stopped: further submissions are rejected.
    JobRequest req;
    req.experiment = "zzproto_a";
    EXPECT_THROW(service.submit(req), ConfigError);
}

} // namespace
} // namespace rp::api
