#include "runner/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace harp::runner {

namespace {

[[noreturn]] void
typeError(const char *wanted, JsonType got)
{
    throw std::logic_error(std::string("JSON value is not ") + wanted +
                           " (actual type: " + jsonTypeName(got) + ")");
}

void
appendEscaped(std::string &out, const std::string &s)
{
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

/** Recursive-descent parser over a complete document. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    JsonValue parseDocument()
    {
        JsonValue v = parseValue();
        skipWhitespace();
        if (pos_ != text_.size())
            fail("trailing content after JSON document");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &what) const
    {
        throw std::runtime_error("JSON parse error at offset " +
                                 std::to_string(pos_) + ": " + what);
    }

    void skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consumeLiteral(const char *lit)
    {
        const std::size_t len = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, len, lit) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    JsonValue parseValue()
    {
        skipWhitespace();
        const char c = peek();
        switch (c) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return JsonValue(parseString());
          case 't':
            if (consumeLiteral("true"))
                return JsonValue(true);
            fail("bad literal");
          case 'f':
            if (consumeLiteral("false"))
                return JsonValue(false);
            fail("bad literal");
          case 'n':
            if (consumeLiteral("null"))
                return JsonValue();
            fail("bad literal");
          default: return parseNumber();
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // The runner only ever emits ASCII control escapes; decode
                // BMP code points as UTF-8 for completeness.
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(
                        static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default: fail("unknown escape");
            }
        }
    }

    JsonValue parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        bool integral = true;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
            fail("bad number");
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        if (integral) {
            std::int64_t i = 0;
            const auto r = std::from_chars(first, last, i);
            if (r.ec == std::errc() && r.ptr == last)
                return JsonValue(i);
            // Out-of-range integer: fall through to double.
        }
        double d = 0.0;
        const auto r = std::from_chars(first, last, d);
        if (r.ec != std::errc() || r.ptr != last)
            fail("bad number");
        return JsonValue(d);
    }

    JsonValue parseArray()
    {
        expect('[');
        JsonValue arr = JsonValue::array();
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(parseValue());
            skipWhitespace();
            const char c = peek();
            ++pos_;
            if (c == ']')
                return arr;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    JsonValue parseObject()
    {
        expect('{');
        JsonValue obj = JsonValue::object();
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skipWhitespace();
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            obj.set(key, parseValue());
            skipWhitespace();
            const char c = peek();
            ++pos_;
            if (c == '}')
                return obj;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

std::string
jsonTypeName(JsonType type)
{
    switch (type) {
      case JsonType::Null: return "null";
      case JsonType::Bool: return "bool";
      case JsonType::Int: return "int";
      case JsonType::Double: return "double";
      case JsonType::String: return "string";
      case JsonType::Array: return "array";
      case JsonType::Object: return "object";
    }
    return "unknown";
}

std::string
jsonNumberToString(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, r.ptr);
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.type_ = JsonType::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.type_ = JsonType::Object;
    return v;
}

bool
JsonValue::asBool() const
{
    if (type_ != JsonType::Bool)
        typeError("a bool", type_);
    return bool_;
}

std::int64_t
JsonValue::asInt() const
{
    if (type_ != JsonType::Int)
        typeError("an int", type_);
    return int_;
}

double
JsonValue::asDouble() const
{
    if (type_ == JsonType::Int)
        return static_cast<double>(int_);
    if (type_ != JsonType::Double)
        typeError("a number", type_);
    return double_;
}

const std::string &
JsonValue::asString() const
{
    if (type_ != JsonType::String)
        typeError("a string", type_);
    return string_;
}

void
JsonValue::push(JsonValue v)
{
    if (type_ != JsonType::Array)
        typeError("an array", type_);
    array_.push_back(std::move(v));
}

std::size_t
JsonValue::size() const
{
    if (type_ == JsonType::Array)
        return array_.size();
    if (type_ == JsonType::Object)
        return object_.size();
    return 0;
}

const JsonValue &
JsonValue::at(std::size_t i) const
{
    if (type_ != JsonType::Array)
        typeError("an array", type_);
    return array_.at(i);
}

void
JsonValue::set(const std::string &key, JsonValue v)
{
    if (type_ != JsonType::Object)
        typeError("an object", type_);
    for (auto &[k, existing] : object_) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    object_.emplace_back(key, std::move(v));
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (type_ != JsonType::Object)
        return nullptr;
    for (const auto &[k, v] : object_)
        if (k == key)
            return &v;
    return nullptr;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (type_ != JsonType::Object)
        typeError("an object", type_);
    return object_;
}

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    const bool pretty = indent > 0;
    const auto newline = [&](int d) {
        if (pretty) {
            out.push_back('\n');
            out.append(static_cast<std::size_t>(indent * d), ' ');
        }
    };
    switch (type_) {
      case JsonType::Null: out += "null"; break;
      case JsonType::Bool: out += bool_ ? "true" : "false"; break;
      case JsonType::Int: out += std::to_string(int_); break;
      case JsonType::Double: out += jsonNumberToString(double_); break;
      case JsonType::String: appendEscaped(out, string_); break;
      case JsonType::Array:
        out.push_back('[');
        for (std::size_t i = 0; i < array_.size(); ++i) {
            if (i != 0)
                out.push_back(',');
            newline(depth + 1);
            array_[i].dumpTo(out, indent, depth + 1);
        }
        if (!array_.empty())
            newline(depth);
        out.push_back(']');
        break;
      case JsonType::Object:
        out.push_back('{');
        for (std::size_t i = 0; i < object_.size(); ++i) {
            if (i != 0)
                out.push_back(',');
            newline(depth + 1);
            appendEscaped(out, object_[i].first);
            out.push_back(':');
            if (pretty)
                out.push_back(' ');
            object_[i].second.dumpTo(out, indent, depth + 1);
        }
        if (!object_.empty())
            newline(depth);
        out.push_back('}');
        break;
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

JsonValue
JsonValue::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

} // namespace harp::runner
