/**
 * @file
 * Strict text parsing of rp::api configuration values.
 *
 * Every value is parsed strictly — the whole string must be a number
 * of the declared type — and a violation raises a ConfigError naming
 * the flag and the offending text instead of silently running with a
 * bogus value.  Config adds the declared lower bound on top.
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
 * in the ConfigError message (e.g. "--locations").
 */
long long parseInt(const std::string &text, const std::string &what);

/**
 * parseInt for a value stored as an int: one outside int's range
 * raises ConfigError ("does not fit an int") instead of wrapping.
 */
int parseInt32(const std::string &text, const std::string &what);

/** Parse @p text as a whole-string floating-point number. */
double parseDouble(const std::string &text, const std::string &what);

} // namespace rp::api

#endif // ROWPRESS_API_ENV_H
