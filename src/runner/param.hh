/**
 * @file
 * Parameter grids for experiment campaigns.
 *
 * Every experiment declares its sweep as a cross product of named axes
 * (the paper's figure matrices: per-bit probability x pre-correction
 * error count, RBER x repair granularity, ...). The campaign driver
 * expands the grid into points, shards the points across worker
 * threads, and lets the command line collapse any axis to a single
 * value for a quick partial run.
 */

#ifndef HARP_RUNNER_PARAM_HH
#define HARP_RUNNER_PARAM_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runner/json.hh"

namespace harp::runner {

/** One axis value (or tunable default): int, double, bool or string. */
class ParamValue
{
  public:
    enum class Type
    {
        Int,
        Double,
        Bool,
        String,
    };

    ParamValue() : type_(Type::Int) {}
    ParamValue(std::int64_t i) : type_(Type::Int), int_(i) {}
    ParamValue(int i) : ParamValue(static_cast<std::int64_t>(i)) {}
    ParamValue(std::size_t u) : ParamValue(static_cast<std::int64_t>(u)) {}
    ParamValue(double d) : type_(Type::Double), double_(d) {}
    ParamValue(bool b) : type_(Type::Bool), bool_(b) {}
    ParamValue(std::string s) : type_(Type::String), string_(std::move(s)) {}
    ParamValue(const char *s) : ParamValue(std::string(s)) {}

    Type type() const { return type_; }

    /** Typed accessors; throw std::logic_error on a type mismatch
     *  (except asDouble, which also accepts Int). */
    std::int64_t asInt() const;
    double asDouble() const;
    const std::string &asString() const;

    /** Flag-style rendering ("0.5", "128", "true", "random"). */
    std::string toString() const;

    /** JSON rendering with the matching JSON type. */
    JsonValue toJson() const;

    /**
     * Parse @p text as this value's type (used to collapse an axis from
     * a command-line override).
     * @throws std::invalid_argument when @p text does not parse.
     */
    ParamValue parseSameType(const std::string &text) const;

  private:
    Type type_;
    std::int64_t int_ = 0;
    double double_ = 0.0;
    bool bool_ = false;
    std::string string_;
};

/** One named sweep axis with the values it takes. */
struct ParamAxis
{
    std::string name;
    std::vector<ParamValue> values;
};

/**
 * One expanded grid point: named axis values in axis order.
 */
class ParamPoint
{
  public:
    void add(std::string name, ParamValue value);

    /** Lookup by axis name; nullptr when the point has no such axis. */
    const ParamValue *find(const std::string &name) const;

    const std::vector<std::pair<std::string, ParamValue>> &entries() const
    {
        return entries_;
    }

    /** JSON object {axis: value, ...} in axis order. */
    JsonValue toJson() const;

    /** Compact "name=value name=value" rendering for logs. */
    std::string toString() const;

  private:
    std::vector<std::pair<std::string, ParamValue>> entries_;
};

/**
 * Cross product of axes. An empty grid expands to one empty point (an
 * experiment with no sweep still runs once).
 */
class ParamGrid
{
  public:
    ParamGrid() = default;
    ParamGrid(std::vector<ParamAxis> axes) : axes_(std::move(axes)) {}

    const std::vector<ParamAxis> &axes() const { return axes_; }

    /** Axis by name; nullptr when absent. */
    const ParamAxis *findAxis(const std::string &name) const;

    /** Number of points the grid expands to (product of axis sizes). */
    std::size_t numPoints() const;

    /**
     * Expand to points in row-major order: the first axis varies
     * slowest. The order is part of the output contract — JSONL result
     * files list points in exactly this order.
     */
    std::vector<ParamPoint> expand() const;

    /**
     * Copy of the grid with axis @p name collapsed to the single value
     * parsed from @p text (same type as the axis's first value).
     * @throws std::invalid_argument on unknown axis or unparsable text.
     */
    ParamGrid collapsed(const std::string &name,
                        const std::string &text) const;

  private:
    std::vector<ParamAxis> axes_;
};

} // namespace harp::runner

#endif // HARP_RUNNER_PARAM_HH
