#include "api/config.h"

namespace rp::api {

ConfigSchema &
ConfigSchema::add(OptionSpec spec)
{
    if (find(spec.key))
        throw ConfigError("schema: duplicate option '" + spec.key +
                          "'");
    options_.push_back(std::move(spec));
    return *this;
}

const OptionSpec *
ConfigSchema::find(const std::string &key) const
{
    for (const auto &opt : options_)
        if (opt.key == key)
            return &opt;
    return nullptr;
}

Config::Config(ConfigSchema schema) : schema_(std::move(schema))
{
    for (const auto &opt : schema_.options()) {
        validate(opt, opt.defaultValue,
                 "default of --" + opt.key);
        values_[opt.key] = {opt.defaultValue, ConfigLayer::Default};
    }
}

void
Config::validate(const OptionSpec &spec, const std::string &value,
                 const std::string &what)
{
    switch (spec.type) {
    case OptionType::Int: {
        // getInt() returns int, so an oversized value is rejected
        // here rather than silently truncated.
        const int v = parseInt32(value, what);
        if (spec.hasMin && double(v) < spec.minValue)
            throw ConfigError(what + ": value " + std::to_string(v) +
                              " is below the minimum of " +
                              std::to_string((long long)spec.minValue));
        if (spec.hasMax && double(v) > spec.maxValue)
            throw ConfigError(what + ": value " + std::to_string(v) +
                              " is above the maximum of " +
                              std::to_string((long long)spec.maxValue));
        break;
    }
    case OptionType::Double: {
        const double v = parseDouble(value, what);
        if (spec.hasMin && v < spec.minValue)
            throw ConfigError(what + ": value " + value +
                              " is below the minimum of " +
                              std::to_string(spec.minValue));
        break;
    }
    case OptionType::String:
        break;
    }
}

void
Config::set(const std::string &key, const std::string &value)
{
    const OptionSpec *spec = schema_.find(key);
    if (!spec)
        throw ConfigError("unknown option '--" + key + "'");
    validate(*spec, value, "--" + key);
    values_[key] = {value, ConfigLayer::Cli};
}

const OptionSpec &
Config::specOf(const std::string &key, OptionType expected) const
{
    const OptionSpec *spec = schema_.find(key);
    if (!spec)
        throw ConfigError("unknown option '--" + key + "'");
    if (spec->type != expected)
        throw ConfigError("option '--" + key +
                          "' accessed with the wrong type");
    return *spec;
}

int
Config::getInt(const std::string &key) const
{
    specOf(key, OptionType::Int);
    return parseInt32(values_.at(key).value, "--" + key);
}

double
Config::getDouble(const std::string &key) const
{
    specOf(key, OptionType::Double);
    return parseDouble(values_.at(key).value, "--" + key);
}

const std::string &
Config::getString(const std::string &key) const
{
    specOf(key, OptionType::String);
    return values_.at(key).value;
}

const char *
configLayerName(ConfigLayer layer)
{
    switch (layer) {
    case ConfigLayer::Default: return "default";
    case ConfigLayer::Cli: return "cli";
    }
    return "unknown";
}

std::vector<ConfigValue>
Config::resolved() const
{
    // values_ is an ordered map, so the listing is sorted by key and
    // deterministic for a given schema + layering.
    std::vector<ConfigValue> out;
    out.reserve(values_.size());
    for (const auto &[key, entry] : values_)
        out.push_back({key, entry.value, configLayerName(entry.origin)});
    return out;
}

ConfigLayer
Config::origin(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        throw ConfigError("unknown option '--" + key + "'");
    return it->second.origin;
}

} // namespace rp::api
