/**
 * @file
 * Typed, schema-checked experiment configuration.
 *
 * A ConfigSchema declares the options an experiment understands (name,
 * type, default, optional bounds); a Config holds one value per
 * declared option, resolved as
 *
 *     defaults  <  the job's request (CLI flags or a submit's config)
 *
 * and records which layer supplied each value.  Nothing else (no
 * environment variable) feeds a job's config, so a request resolves
 * the same in every process.  Setting an undeclared key, or a value
 * that fails the type/bound check, raises ConfigError — unknown keys
 * are rejected hard rather than ignored, so a typoed flag can never
 * silently run the default configuration.
 */

#ifndef ROWPRESS_API_CONFIG_H
#define ROWPRESS_API_CONFIG_H

#include <map>
#include <string>
#include <vector>

#include "api/env.h"

namespace rp::api {

/** Value type of a declared option. */
enum class OptionType
{
    Int,
    Double,
    String,
};

/**
 * The layer a Config value came from.  Cli is also the layer of a
 * service job's config overlay — a serve submit's {"temp": "65"} and
 * `rowpress run --temp 65` are the same layer by design, so the
 * resolved config (and the metadata embedded in result.json) is
 * identical whichever way the job arrived.
 */
enum class ConfigLayer
{
    Default,
    Cli,
};

/** Lower-case name of a layer ("default", "cli"). */
const char *configLayerName(ConfigLayer layer);

/** One fully-resolved configuration entry (key, value, origin layer). */
struct ConfigValue
{
    std::string key;
    std::string value;
    std::string origin; ///< configLayerName of the supplying layer.
};

/** Declaration of one configuration option. */
struct OptionSpec
{
    std::string key;          ///< CLI flag name (`--<key>`).
    OptionType type = OptionType::String;
    std::string defaultValue; ///< Textual default (schema-validated).
    std::string help;         ///< One-line description for `--help`.
    double minValue = 0.0;    ///< Lower bound when hasMin (Int/Double).
    bool hasMin = false;
    double maxValue = 0.0;    ///< Upper bound when hasMax (Int).
    bool hasMax = false;
};

/** The set of options one experiment (or the CLI itself) accepts. */
class ConfigSchema
{
  public:
    /** Declare an option; throws ConfigError on a duplicate key. */
    ConfigSchema &add(OptionSpec spec);

    const OptionSpec *find(const std::string &key) const;
    const std::vector<OptionSpec> &options() const { return options_; }

  private:
    std::vector<OptionSpec> options_;
};

/** Key/value store over a ConfigSchema: defaults < request. */
class Config
{
  public:
    explicit Config(ConfigSchema schema);

    const ConfigSchema &schema() const { return schema_; }

    /**
     * Set @p key to @p value at the Cli layer (validated against the
     * schema; a later set of the same key wins).  Throws ConfigError
     * on unknown keys or malformed values.
     */
    void set(const std::string &key, const std::string &value);

    int getInt(const std::string &key) const;
    double getDouble(const std::string &key) const;
    const std::string &getString(const std::string &key) const;

    /** The layer that supplied the current value of @p key. */
    ConfigLayer origin(const std::string &key) const;

    /**
     * Every declared key with its current textual value and origin
     * layer, sorted by key.  This is the "fully resolved config" the
     * service embeds in result.json and streams with Started events,
     * so any artifact is reproducible from its own metadata.
     */
    std::vector<ConfigValue> resolved() const;

  private:
    struct Entry
    {
        std::string value;
        ConfigLayer origin = ConfigLayer::Default;
    };

    const OptionSpec &specOf(const std::string &key,
                             OptionType expected) const;
    static void validate(const OptionSpec &spec, const std::string &value,
                         const std::string &what);

    ConfigSchema schema_;
    std::map<std::string, Entry> values_;
};

} // namespace rp::api

#endif // ROWPRESS_API_CONFIG_H
