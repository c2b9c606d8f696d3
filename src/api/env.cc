#include "api/env.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace rp::api {

namespace {

std::string
strip(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

} // namespace

long long
parseInt(const std::string &text, const std::string &what)
{
    const std::string t = strip(text);
    if (t.empty())
        throw ConfigError(what + ": empty value where an integer was "
                                 "expected");
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(t.c_str(), &end, 10);
    if (errno == ERANGE)
        throw ConfigError(what + ": integer out of range: '" + text +
                          "'");
    if (end == t.c_str() || *end != '\0')
        throw ConfigError(what + ": not an integer: '" + text + "'");
    return v;
}

int
parseInt32(const std::string &text, const std::string &what)
{
    const long long v = parseInt(text, what);
    if (v > std::numeric_limits<int>::max() ||
        v < std::numeric_limits<int>::min())
        throw ConfigError(what + ": value " + std::to_string(v) +
                          " does not fit an int");
    return int(v);
}

double
parseDouble(const std::string &text, const std::string &what)
{
    const std::string t = strip(text);
    if (t.empty())
        throw ConfigError(what + ": empty value where a number was "
                                 "expected");
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(t.c_str(), &end);
    if (end == t.c_str() || *end != '\0')
        throw ConfigError(what + ": not a number: '" + text + "'");
    if (errno == ERANGE || !std::isfinite(v))
        throw ConfigError(what + ": number out of range: '" + text +
                          "'");
    return v;
}

} // namespace rp::api
