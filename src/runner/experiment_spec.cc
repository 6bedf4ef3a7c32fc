#include "runner/experiment_spec.hh"

#include <algorithm>
#include <stdexcept>

namespace harp::runner {

const ParamValue &
RunContext::value(const std::string &name) const
{
    if (const ParamValue *v = point_.find(name))
        return *v;
    if (const ParamValue *v = tunables_.find(name))
        return *v;
    throw std::logic_error("'" + name +
                           "' is neither an axis nor a declared tunable");
}

std::int64_t
RunContext::getInt(const std::string &name) const
{
    return value(name).asInt();
}

std::size_t
RunContext::getCount(const std::string &name) const
{
    const std::int64_t n = getInt(name);
    if (n < 0)
        throw std::invalid_argument(name + " must be a count >= 0, got " +
                                    std::to_string(n));
    return static_cast<std::size_t>(n);
}

double
RunContext::getDouble(const std::string &name) const
{
    return value(name).asDouble();
}

const std::string &
RunContext::getString(const std::string &name) const
{
    return value(name).asString();
}

bool
ExperimentSpec::hasLabel(const std::string &label) const
{
    return std::find(labels.begin(), labels.end(), label) != labels.end();
}

std::optional<std::string>
validateSchema(const std::vector<FieldSpec> &schema, const JsonValue &metrics)
{
    if (metrics.type() != JsonType::Object)
        return "metrics is not a JSON object";
    for (const FieldSpec &field : schema) {
        const JsonValue *v = metrics.find(field.name);
        if (v == nullptr)
            return "missing field '" + field.name + "'";
        if (v->isNull())
            continue; // null marks a not-applicable value
        if (v->type() == field.type)
            continue;
        if (field.type == JsonType::Double && v->type() == JsonType::Int)
            continue; // integral doubles parse back as Int
        return "field '" + field.name + "' has type " +
               jsonTypeName(v->type()) + ", schema says " +
               jsonTypeName(field.type);
    }
    for (const auto &[key, value] : metrics.members()) {
        const bool declared =
            std::any_of(schema.begin(), schema.end(),
                        [&](const FieldSpec &f) { return f.name == key; });
        if (!declared)
            return "undeclared field '" + key + "'";
    }
    return std::nullopt;
}

JsonValue
schemaToJson(const std::vector<FieldSpec> &schema)
{
    JsonValue obj = JsonValue::object();
    for (const FieldSpec &field : schema)
        obj.set(field.name, JsonValue(jsonTypeName(field.type)));
    return obj;
}

bool
acceptsOverride(const std::vector<const ExperimentSpec *> &specs,
                const std::string &name)
{
    return std::any_of(specs.begin(), specs.end(),
                       [&name](const ExperimentSpec *spec) {
                           return spec->grid.findAxis(name) != nullptr ||
                                  std::any_of(spec->tunables.begin(),
                                              spec->tunables.end(),
                                              [&name](const TunableSpec &t) {
                                                  return t.name == name;
                                              });
                       });
}

} // namespace harp::runner
