#include "runner/experiment_spec.hh"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace harp::runner {

const std::string *
RunContext::findOverride(const std::string &name) const
{
    const auto it = overrides_.find(name);
    return it == overrides_.end() ? nullptr : &it->second;
}

std::int64_t
RunContext::getInt(const std::string &name, std::int64_t def) const
{
    if (const ParamValue *v = point_.find(name))
        return v->asInt();
    if (const std::string *text = findOverride(name)) {
        std::int64_t i = 0;
        const auto r =
            std::from_chars(text->data(), text->data() + text->size(), i);
        if (r.ec != std::errc() || r.ptr != text->data() + text->size())
            throw std::invalid_argument("--" + name + "=" + *text +
                                        ": not an integer");
        return i;
    }
    return def;
}

double
RunContext::getDouble(const std::string &name, double def) const
{
    if (const ParamValue *v = point_.find(name))
        return v->asDouble();
    if (const std::string *text = findOverride(name)) {
        double d = 0.0;
        const auto r =
            std::from_chars(text->data(), text->data() + text->size(), d);
        if (r.ec != std::errc() || r.ptr != text->data() + text->size())
            throw std::invalid_argument("--" + name + "=" + *text +
                                        ": not a number");
        return d;
    }
    return def;
}

std::string
RunContext::getString(const std::string &name, const std::string &def) const
{
    if (const ParamValue *v = point_.find(name))
        return v->asString();
    if (const std::string *text = findOverride(name))
        return *text;
    return def;
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
