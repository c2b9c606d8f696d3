/**
 * @file
 * fig23 and fig24 size their runs from --scale and check the sizes
 * before running anything: a scale whose demo victims do not fit the
 * bank, or whose probe trials overflow an int, is a config error.
 * `rowpress run` exits 2 with the limit in its message, and `serve`
 * fails that one job and keeps serving.  This binary links the two
 * experiments' translation units (see tests/CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/cli.h"
#include "api/json.h"
#include "api/protocol.h"
#include "api/service.h"

namespace rp::api {
namespace {

int
cli(const std::vector<std::string> &args, std::string &text)
{
    std::ostringstream out, err;
    const int rc = runCli(args, out, err);
    text = out.str() + err.str();
    return rc;
}

TEST(SysDemoCli, Fig23ScalePastTheBankExits2BeforeAnyCell)
{
    std::string text;
    EXPECT_EQ(cli({"run", "fig23", "--scale", "13", "--threads", "1"},
                  text),
              2);
    EXPECT_NE(text.find("fig23 would test 130 victim rows"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("at most 124"), std::string::npos) << text;
    EXPECT_EQ(text.find("NUM_AGGR_ACTS"), std::string::npos) << text;
}

TEST(SysDemoCli, Fig24ScalePastIntExits2)
{
    std::string text;
    EXPECT_EQ(cli({"run", "fig24", "--scale", "1e6"}, text), 2);
    EXPECT_NE(text.find("more than an int holds"), std::string::npos)
        << text;
}

TEST(SysDemoCli, ServeFailsTheJobAndKeepsServing)
{
    std::istringstream in(
        "{\"op\":\"submit\",\"experiment\":\"fig23\","
        "\"config\":{\"scale\":\"13\",\"threads\":\"1\"},"
        "\"formats\":[\"csv\"],\"out\":\"" +
        ::testing::TempDir() + "rp_demo_cli\"}\n"
        "{\"op\":\"submit\",\"experiment\":\"fig24\","
        "\"config\":{\"scale\":\"0.01\",\"threads\":\"1\"},"
        "\"formats\":[\"csv\"],\"out\":\"" +
        ::testing::TempDir() + "rp_demo_cli\"}\n");
    std::ostringstream out;
    Service service;
    EXPECT_EQ(serveSession(service, in, out), 0);

    std::vector<std::string> finished;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        const JsonValue v = parseJson(line);
        const JsonValue *event = v.find("event");
        if (event && event->text == "finished")
            finished.push_back(v.find("experiment")->text + " " +
                               v.find("state")->text);
    }
    EXPECT_EQ(finished,
              (std::vector<std::string>{"fig23 failed", "fig24 finished"}))
        << out.str();
}

} // namespace
} // namespace rp::api
