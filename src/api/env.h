/**
 * @file
 * Validated environment/text parsing for the rp::api configuration
 * layer.
 *
 * Replaces the ad-hoc `rpb::envInt` (atoi, silently accepting garbage
 * and negative values) used by the old per-figure binaries: every
 * value is parsed strictly — the whole string must be a number of the
 * declared type and must satisfy the declared lower bound — and a
 * violation raises a ConfigError naming the variable and the
 * offending text instead of silently running with a bogus value.
 */

#ifndef ROWPRESS_API_ENV_H
#define ROWPRESS_API_ENV_H

#include <stdexcept>
#include <string>

namespace rp::api {

/** Configuration / CLI error; the CLI maps it to exit code 2. */
class ConfigError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Parse @p text as a whole-string integer.  @p what names the value
 * in the ConfigError message (e.g. "RP_THREADS" or "--locations").
 */
long long parseInt(const std::string &text, const std::string &what);

/**
 * parseInt for a value stored as an int: one outside int's range
 * raises ConfigError ("does not fit an int") instead of wrapping.
 */
int parseInt32(const std::string &text, const std::string &what);

/** Parse @p text as a whole-string floating-point number. */
double parseDouble(const std::string &text, const std::string &what);

/** Parse "1"/"0"/"true"/"false"/"yes"/"no"/"on"/"off". */
bool parseBool(const std::string &text, const std::string &what);

} // namespace rp::api

#endif // ROWPRESS_API_ENV_H
