#include "runner/param.hh"

#include <charconv>
#include <stdexcept>

namespace harp::runner {

std::int64_t
ParamValue::asInt() const
{
    if (type_ != Type::Int)
        throw std::logic_error("parameter is not an int");
    return int_;
}

double
ParamValue::asDouble() const
{
    if (type_ == Type::Int)
        return static_cast<double>(int_);
    if (type_ != Type::Double)
        throw std::logic_error("parameter is not a number");
    return double_;
}

const std::string &
ParamValue::asString() const
{
    if (type_ != Type::String)
        throw std::logic_error("parameter is not a string");
    return string_;
}

std::string
ParamValue::toString() const
{
    switch (type_) {
      case Type::Int: return std::to_string(int_);
      case Type::Double: return jsonNumberToString(double_);
      case Type::Bool: return bool_ ? "true" : "false";
      case Type::String: return string_;
    }
    return "";
}

JsonValue
ParamValue::toJson() const
{
    switch (type_) {
      case Type::Int: return JsonValue(int_);
      case Type::Double: return JsonValue(double_);
      case Type::Bool: return JsonValue(bool_);
      case Type::String: return JsonValue(string_);
    }
    return JsonValue();
}

ParamValue
ParamValue::parseSameType(const std::string &text) const
{
    switch (type_) {
      case Type::Int: {
        std::int64_t i = 0;
        const auto r =
            std::from_chars(text.data(), text.data() + text.size(), i);
        if (r.ec != std::errc() || r.ptr != text.data() + text.size())
            throw std::invalid_argument("'" + text + "' is not an integer");
        return ParamValue(i);
      }
      case Type::Double: {
        double d = 0.0;
        const auto r =
            std::from_chars(text.data(), text.data() + text.size(), d);
        if (r.ec != std::errc() || r.ptr != text.data() + text.size())
            throw std::invalid_argument("'" + text + "' is not a number");
        return ParamValue(d);
      }
      case Type::Bool:
        if (text == "true" || text == "1")
            return ParamValue(true);
        if (text == "false" || text == "0")
            return ParamValue(false);
        throw std::invalid_argument("'" + text + "' is not a bool");
      case Type::String: return ParamValue(text);
    }
    throw std::invalid_argument("unknown parameter type");
}

void
ParamPoint::add(std::string name, ParamValue value)
{
    entries_.emplace_back(std::move(name), std::move(value));
}

const ParamValue *
ParamPoint::find(const std::string &name) const
{
    for (const auto &[n, v] : entries_)
        if (n == name)
            return &v;
    return nullptr;
}

JsonValue
ParamPoint::toJson() const
{
    JsonValue obj = JsonValue::object();
    for (const auto &[n, v] : entries_)
        obj.set(n, v.toJson());
    return obj;
}

std::string
ParamPoint::toString() const
{
    std::string out;
    for (const auto &[n, v] : entries_) {
        if (!out.empty())
            out.push_back(' ');
        out += n + "=" + v.toString();
    }
    return out;
}

const ParamAxis *
ParamGrid::findAxis(const std::string &name) const
{
    for (const ParamAxis &axis : axes_)
        if (axis.name == name)
            return &axis;
    return nullptr;
}

std::size_t
ParamGrid::numPoints() const
{
    std::size_t n = 1;
    for (const ParamAxis &axis : axes_)
        n *= axis.values.size();
    return n;
}

std::vector<ParamPoint>
ParamGrid::expand() const
{
    std::vector<ParamPoint> points;
    points.reserve(numPoints());
    std::vector<std::size_t> index(axes_.size(), 0);
    while (true) {
        ParamPoint point;
        for (std::size_t a = 0; a < axes_.size(); ++a)
            point.add(axes_[a].name, axes_[a].values[index[a]]);
        points.push_back(std::move(point));
        // Row-major increment: last axis fastest.
        std::size_t a = axes_.size();
        while (a > 0) {
            --a;
            if (++index[a] < axes_[a].values.size())
                break;
            index[a] = 0;
            if (a == 0)
                return points;
        }
        if (axes_.empty())
            return points;
    }
}

ParamGrid
ParamGrid::collapsed(const std::string &name, const std::string &text) const
{
    ParamGrid grid = *this;
    for (ParamAxis &axis : grid.axes_) {
        if (axis.name != name)
            continue;
        axis.values = {axis.values.front().parseSameType(text)};
        return grid;
    }
    throw std::invalid_argument("no axis named '" + name + "'");
}

} // namespace harp::runner
