/**
 * @file
 * Minimal JSON document model for the experiment-campaign runner.
 *
 * The runner emits machine-readable results (JSON Lines per grid point
 * plus an aggregated summary document) and validates them against each
 * experiment's declared result schema, so it needs both a writer and a
 * reader. Objects preserve insertion order and numbers render through
 * std::to_chars (shortest round-trip form), which makes serialized
 * output byte-stable — campaign determinism is asserted by hashing it.
 */

#ifndef HARP_RUNNER_JSON_HH
#define HARP_RUNNER_JSON_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace harp::runner {

/** Type tag of a JsonValue. */
enum class JsonType
{
    Null,
    Bool,
    Int,    ///< Integral number (no fraction/exponent in the source).
    Double, ///< Any other number.
    String,
    Array,
    Object,
};

/** Human-readable type name ("null", "bool", "int", ...). */
std::string jsonTypeName(JsonType type);

/**
 * One JSON value of any type.
 *
 * Objects keep their keys in insertion order so that a document dumps
 * identically on every run; lookup is linear, which is fine for the
 * small documents the runner produces.
 */
class JsonValue
{
  public:
    /** Constructs null. */
    JsonValue() = default;

    JsonValue(bool b) : type_(JsonType::Bool), bool_(b) {}
    JsonValue(std::int64_t i) : type_(JsonType::Int), int_(i) {}
    JsonValue(int i) : JsonValue(static_cast<std::int64_t>(i)) {}
    JsonValue(std::size_t u) : JsonValue(static_cast<std::int64_t>(u)) {}
    JsonValue(double d) : type_(JsonType::Double), double_(d) {}
    JsonValue(std::string s) : type_(JsonType::String), string_(std::move(s))
    {
    }
    JsonValue(const char *s) : JsonValue(std::string(s)) {}

    /** Empty array. */
    static JsonValue array();
    /** Empty object. */
    static JsonValue object();

    JsonType type() const { return type_; }
    bool isNull() const { return type_ == JsonType::Null; }
    /** True for Int or Double. */
    bool isNumber() const
    {
        return type_ == JsonType::Int || type_ == JsonType::Double;
    }

    /** Typed accessors; throw std::logic_error on a type mismatch. */
    bool asBool() const;
    std::int64_t asInt() const;
    /** Numeric value as double (valid for Int and Double). */
    double asDouble() const;
    const std::string &asString() const;

    // --- Array interface ---------------------------------------------
    /** Append to an array (value must be an array). */
    void push(JsonValue v);
    /** Array size / object member count; 0 for other types. */
    std::size_t size() const;
    /** Array element access; throws std::out_of_range. */
    const JsonValue &at(std::size_t i) const;

    // --- Object interface --------------------------------------------
    /** Set (or replace) an object member, preserving first-set order. */
    void set(const std::string &key, JsonValue v);
    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;
    /** Object members in insertion order. */
    const std::vector<std::pair<std::string, JsonValue>> &members() const;

    /** Serialize. @p indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

    /**
     * Parse a complete JSON document.
     * @throws std::runtime_error with position info on malformed input.
     */
    static JsonValue parse(const std::string &text);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    JsonType type_ = JsonType::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::vector<std::pair<std::string, JsonValue>> object_;
};

/** Shortest-round-trip rendering of a double (to_chars); "null" for
 *  non-finite values, which JSON cannot represent. */
std::string jsonNumberToString(double value);

} // namespace harp::runner

#endif // HARP_RUNNER_JSON_HH
