#include "api/json.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "api/env.h"

namespace rp::api {

// ---- JsonValue -------------------------------------------------------

JsonValue
JsonValue::makeNull()
{
    return JsonValue{};
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.kind = Kind::Bool;
    v.boolean = b;
    return v;
}

JsonValue
JsonValue::number(const std::string &raw_text)
{
    JsonValue v;
    v.kind = Kind::Number;
    v.text = raw_text;
    return v;
}

JsonValue
JsonValue::number(long long n)
{
    return number(std::to_string(n));
}

JsonValue
JsonValue::number(double d)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", d);
    return number(std::string(buf));
}

JsonValue
JsonValue::string(const std::string &s)
{
    JsonValue v;
    v.kind = Kind::String;
    v.text = s;
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.kind = Kind::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.kind = Kind::Object;
    return v;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : members)
        if (k == key)
            return &v;
    return nullptr;
}

JsonValue &
JsonValue::add(const std::string &key, JsonValue v)
{
    members.emplace_back(key, std::move(v));
    return *this;
}

JsonValue &
JsonValue::push(JsonValue v)
{
    items.push_back(std::move(v));
    return *this;
}

std::string
JsonValue::scalarText(const std::string &what) const
{
    switch (kind) {
    case Kind::String:
    case Kind::Number:
        return text;
    case Kind::Bool:
        return boolean ? "1" : "0";
    default:
        throw ConfigError(what +
                          ": expected a scalar (string/number/bool)");
    }
}

// ---- parser ----------------------------------------------------------

namespace {

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = value(0);
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why) const
    {
        throw ConfigError("protocol: malformed JSON at offset " +
                          std::to_string(pos_) + ": " + why);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(std::string("expected '") + word + "'");
            ++pos_;
        }
    }

    unsigned
    hex4()
    {
        unsigned out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = peek();
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= unsigned(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= unsigned(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= unsigned(c - 'A' + 10);
            else
                fail("bad \\u escape");
            ++pos_;
        }
        return out;
    }

    void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += char(cp);
        } else if (cp < 0x800) {
            out += char(0xC0 | (cp >> 6));
            out += char(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += char(0xE0 | (cp >> 12));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        } else {
            out += char(0xF0 | (cp >> 18));
            out += char(0x80 | ((cp >> 12) & 0x3F));
            out += char(0x80 | ((cp >> 6) & 0x3F));
            out += char(0x80 | (cp & 0x3F));
        }
    }

    std::string
    stringBody()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const unsigned char c = (unsigned char)text_[pos_];
            if (c == '"') {
                ++pos_;
                return out;
            }
            if (c == '\\') {
                ++pos_;
                const char e = peek();
                ++pos_;
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    unsigned cp = hex4();
                    if (cp >= 0xD800 && cp <= 0xDBFF) {
                        // Surrogate pair.
                        if (!consume('\\') || !consume('u'))
                            fail("unpaired surrogate");
                        const unsigned lo = hex4();
                        if (lo < 0xDC00 || lo > 0xDFFF)
                            fail("bad low surrogate");
                        cp = 0x10000 + ((cp - 0xD800) << 10) +
                             (lo - 0xDC00);
                    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                        // A lone low surrogate would encode to
                        // invalid UTF-8; reject like a lone high one.
                        fail("unpaired surrogate");
                    }
                    appendUtf8(out, cp);
                    break;
                }
                default:
                    fail("bad escape");
                }
                continue;
            }
            if (c < 0x20)
                fail("raw control character in string");
            out += char(c);
            ++pos_;
        }
    }

    JsonValue
    numberValue()
    {
        const std::size_t start = pos_;
        consume('-');
        while (pos_ < text_.size() &&
               ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        const std::string raw = text_.substr(start, pos_ - start);
        if (!looksNumeric(raw))
            fail("bad number '" + raw + "'");
        return JsonValue::number(raw);
    }

    JsonValue
    value(int depth)
    {
        if (depth > 32)
            fail("nesting too deep");
        skipWs();
        const char c = peek();
        if (c == '{') {
            ++pos_;
            JsonValue obj = JsonValue::object();
            skipWs();
            if (consume('}'))
                return obj;
            for (;;) {
                skipWs();
                std::string key = stringBody();
                skipWs();
                expect(':');
                obj.add(std::move(key), value(depth + 1));
                skipWs();
                if (consume(','))
                    continue;
                expect('}');
                return obj;
            }
        }
        if (c == '[') {
            ++pos_;
            JsonValue arr = JsonValue::array();
            skipWs();
            if (consume(']'))
                return arr;
            for (;;) {
                arr.push(value(depth + 1));
                skipWs();
                if (consume(','))
                    continue;
                expect(']');
                return arr;
            }
        }
        if (c == '"')
            return JsonValue::string(stringBody());
        if (c == 't') {
            literal("true");
            return JsonValue::makeBool(true);
        }
        if (c == 'f') {
            literal("false");
            return JsonValue::makeBool(false);
        }
        if (c == 'n') {
            literal("null");
            return JsonValue::makeNull();
        }
        if (c == '-' || (c >= '0' && c <= '9'))
            return numberValue();
        fail("unexpected character");
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
parseJson(const std::string &text)
{
    return JsonParser(text).parse();
}

// ---- escaping and numbers --------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += char(c);
            }
        }
    }
    return out;
}

bool
looksNumeric(const std::string &text)
{
    // Exact RFC 8259 number grammar:
    //   -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    // (strtod would also accept hex, "1.", "007", inf/nan — all of
    // which are invalid JSON and must stay quoted).
    std::size_t i = 0;
    const std::size_t n = text.size();
    auto digits = [&]() {
        const std::size_t start = i;
        while (i < n && text[i] >= '0' && text[i] <= '9')
            ++i;
        return i > start;
    };
    if (i < n && text[i] == '-')
        ++i;
    if (i >= n)
        return false;
    if (text[i] == '0') {
        ++i;
    } else if (text[i] >= '1' && text[i] <= '9') {
        digits();
    } else {
        return false;
    }
    if (i < n && text[i] == '.') {
        ++i;
        if (!digits())
            return false;
    }
    if (i < n && (text[i] == 'e' || text[i] == 'E')) {
        ++i;
        if (i < n && (text[i] == '+' || text[i] == '-'))
            ++i;
        if (!digits())
            return false;
    }
    return i == n;
}

// ---- serializer ------------------------------------------------------

namespace {

bool
isScalar(const JsonValue &v)
{
    return v.kind != JsonValue::Kind::Array &&
           v.kind != JsonValue::Kind::Object;
}

void
writeJsonTo(std::ostream &os, const JsonValue &v, int indent, int depth)
{
    const bool pretty = indent >= 0;
    const std::string pad =
        pretty ? std::string(std::size_t(indent) * std::size_t(depth + 1),
                             ' ')
               : "";
    const std::string closing =
        pretty ? std::string(std::size_t(indent) * std::size_t(depth),
                             ' ')
               : "";
    const char *nl = pretty ? "\n" : "";
    const char *colon = pretty ? ": " : ":";

    switch (v.kind) {
    case JsonValue::Kind::Null:
        os << "null";
        break;
    case JsonValue::Kind::Bool:
        os << (v.boolean ? "true" : "false");
        break;
    case JsonValue::Kind::Number:
        os << (looksNumeric(v.text) ? v.text : "0");
        break;
    case JsonValue::Kind::String:
        os << '"' << jsonEscape(v.text) << '"';
        break;
    case JsonValue::Kind::Array:
        if (v.items.empty()) {
            os << "[]";
            break;
        }
        if (pretty && std::all_of(v.items.begin(), v.items.end(),
                                  isScalar)) {
            // One line per table row or column list: `[a, b]`.
            os << '[';
            for (std::size_t i = 0; i < v.items.size(); ++i) {
                os << (i ? ", " : "");
                writeJsonTo(os, v.items[i], indent, depth + 1);
            }
            os << ']';
            break;
        }
        os << '[' << nl;
        for (std::size_t i = 0; i < v.items.size(); ++i) {
            os << pad;
            writeJsonTo(os, v.items[i], indent, depth + 1);
            os << (i + 1 < v.items.size() ? "," : "") << nl;
        }
        os << closing << ']';
        break;
    case JsonValue::Kind::Object:
        if (v.members.empty()) {
            os << "{}";
            break;
        }
        os << '{' << nl;
        for (std::size_t i = 0; i < v.members.size(); ++i) {
            os << pad << '"' << jsonEscape(v.members[i].first) << '"'
               << colon;
            writeJsonTo(os, v.members[i].second, indent, depth + 1);
            os << (i + 1 < v.members.size() ? "," : "") << nl;
        }
        os << closing << '}';
        break;
    }
}

} // namespace

void
writeJson(std::ostream &os, const JsonValue &value, int indent)
{
    writeJsonTo(os, value, indent, 0);
}

std::string
toJson(const JsonValue &value, int indent)
{
    std::ostringstream os;
    writeJson(os, value, indent);
    return os.str();
}

} // namespace rp::api
