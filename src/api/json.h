/**
 * @file
 * The one JSON module: a minimal document value (objects, arrays,
 * strings, raw-text numbers, bools, null — deliberately tiny, so the
 * repo takes no dependency for it), its parser, and its writer.  The
 * serve protocol, `rowpress list`/`cache ls --format json` and
 * JsonSink's result.json all go through it, so JSON is escaped and
 * serialized only here.
 */

#ifndef ROWPRESS_API_JSON_H
#define ROWPRESS_API_JSON_H

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace rp::api {

/** Minimal JSON document value (parse result / document builder). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    /**
     * String contents (Kind::String) or the raw numeric text exactly
     * as parsed/given (Kind::Number) — numbers round-trip textually,
     * so "65" never turns into "65.000000" on the way to a Config.
     */
    std::string text;
    std::vector<JsonValue> items; ///< Kind::Array
    std::vector<std::pair<std::string, JsonValue>> members; ///< Object

    static JsonValue makeNull();
    static JsonValue makeBool(bool b);
    static JsonValue number(const std::string &raw_text);
    static JsonValue number(long long v);
    static JsonValue number(double v);
    static JsonValue string(const std::string &s);
    static JsonValue array();
    static JsonValue object();

    /** Object member by key; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    JsonValue &add(const std::string &key, JsonValue v); ///< Object.
    JsonValue &push(JsonValue v);                        ///< Array.

    /**
     * Scalar as the text a Config accepts: string/number text,
     * "1"/"0" for bools.  Throws ConfigError for arrays/objects/null.
     */
    std::string scalarText(const std::string &what) const;
};

/**
 * Parse one complete JSON document from @p text (trailing whitespace
 * allowed, nothing else).  Throws ConfigError on malformed input.
 */
JsonValue parseJson(const std::string &text);

/**
 * Serialize: compact single-line form when @p indent < 0 (the wire
 * format), pretty-printed with @p indent spaces per level otherwise.
 * Pretty output keeps an array whose items are all scalars on one
 * line (`[a, b]`), so a table row stays one line.
 */
void writeJson(std::ostream &os, const JsonValue &value,
               int indent = -1);
std::string toJson(const JsonValue &value, int indent = -1);

/** JSON string escaping (exposed for tests). */
std::string jsonEscape(const std::string &s);

/**
 * True when @p text is a complete finite number (JSON emits it
 * unquoted, preserving the exact formatted value).
 */
bool looksNumeric(const std::string &text);

} // namespace rp::api

#endif // ROWPRESS_API_JSON_H
