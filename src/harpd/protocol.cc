#include "harpd/protocol.hh"

#include <map>
#include <stdexcept>

namespace harp::harpd {

using runner::JsonType;
using runner::JsonValue;

bool
validCampaignId(const std::string &id)
{
    if (id.empty() || id.size() > 64 || id.front() == '.')
        return false;
    for (const char c : id) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        if (!ok)
            return false;
    }
    return true;
}

JsonValue
errorReply(const std::string &code, const std::string &message)
{
    JsonValue reply = JsonValue::object();
    reply.set("type", JsonValue("error"));
    reply.set("code", JsonValue(code));
    reply.set("message", JsonValue(message));
    return reply;
}

std::string
wireLine(const JsonValue &reply)
{
    return reply.dump() + "\n";
}

namespace {

/** Fails with a bad_request error via exception for terse validation. */
struct RequestError : std::runtime_error
{
    explicit RequestError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

std::uint64_t
parseSeed(const JsonValue &value)
{
    if (value.type() == JsonType::Int) {
        const std::int64_t seed = value.asInt();
        if (seed < 0)
            throw RequestError("seed must be non-negative");
        return static_cast<std::uint64_t>(seed);
    }
    if (value.type() == JsonType::String) {
        const std::string &text = value.asString();
        if (text.empty() ||
            text.find_first_not_of("0123456789") != std::string::npos)
            throw RequestError("seed string must be a decimal integer");
        try {
            return std::stoull(text);
        } catch (const std::exception &) {
            throw RequestError("seed string out of range");
        }
    }
    throw RequestError("seed must be an integer or a decimal string");
}

std::string
overrideText(const JsonValue &value)
{
    switch (value.type()) {
    case JsonType::String:
        return value.asString();
    case JsonType::Int:
        return std::to_string(value.asInt());
    case JsonType::Double:
        return runner::jsonNumberToString(value.asDouble());
    case JsonType::Bool:
        return value.asBool() ? "true" : "false";
    default:
        throw RequestError("override values must be scalars");
    }
}

Request
parseValidated(const JsonValue &doc)
{
    if (doc.type() != JsonType::Object)
        throw RequestError("request must be a JSON object");
    const JsonValue *verb = doc.find("verb");
    if (verb == nullptr || verb->type() != JsonType::String)
        throw RequestError("missing string member 'verb'");

    static const std::map<std::string, Verb> verbs = {
        {"ping", Verb::Ping},           {"list", Verb::List},
        {"status", Verb::Status},       {"cancel", Verb::Cancel},
        {"submit", Verb::Submit},       {"shutdown", Verb::Shutdown},
        {"subscribe", Verb::Subscribe}, {"resume", Verb::Resume}};
    const auto known = verbs.find(verb->asString());
    if (known == verbs.end())
        throw RequestError("unknown verb '" + verb->asString() + "'");
    Request request;
    request.verb = known->second;

    const bool needsCampaign = request.verb == Verb::Status ||
                               request.verb == Verb::Cancel ||
                               request.verb == Verb::Submit ||
                               request.verb == Verb::Subscribe ||
                               request.verb == Verb::Resume;
    if (needsCampaign) {
        const JsonValue *campaign = doc.find("campaign");
        if (campaign == nullptr || campaign->type() != JsonType::String)
            throw RequestError("missing string member 'campaign'");
        if (!validCampaignId(campaign->asString()))
            throw RequestError(
                "invalid campaign id (want [A-Za-z0-9._-]{1,64}, no "
                "leading dot)");
        request.campaign = campaign->asString();
    }

    if (request.verb == Verb::Submit) {
        const JsonValue *experiments = doc.find("experiments");
        if (experiments == nullptr ||
            experiments->type() != JsonType::Array ||
            experiments->size() == 0)
            throw RequestError(
                "missing non-empty array member 'experiments'");
        for (std::size_t i = 0; i < experiments->size(); ++i) {
            const JsonValue &entry = experiments->at(i);
            if (entry.type() != JsonType::String)
                throw RequestError("'experiments' entries must be "
                                   "strings");
            request.experiments.push_back(entry.asString());
        }
        if (const JsonValue *seed = doc.find("seed"))
            request.seed = parseSeed(*seed);
        if (const JsonValue *repeat = doc.find("repeat")) {
            if (repeat->type() != JsonType::Int || repeat->asInt() < 1 ||
                repeat->asInt() > 1'000'000)
                throw RequestError("repeat must be an integer in "
                                   "[1, 1000000]");
            request.repeat = static_cast<std::size_t>(repeat->asInt());
        }
        if (const JsonValue *overrides = doc.find("overrides")) {
            if (overrides->type() != JsonType::Object)
                throw RequestError("'overrides' must be an object");
            for (const auto &[key, value] : overrides->members())
                request.overrides[key] = overrideText(value);
        }
        if (const JsonValue *tenant = doc.find("tenant")) {
            if (tenant->type() != JsonType::String ||
                !validCampaignId(tenant->asString()))
                throw RequestError(
                    "invalid tenant (want [A-Za-z0-9._-]{1,64}, no "
                    "leading dot)");
            request.tenant = tenant->asString();
        }
        if (const JsonValue *priority = doc.find("priority")) {
            if (priority->type() != JsonType::String)
                throw RequestError("'priority' must be a string");
            const auto cls =
                common::parsePriorityClass(priority->asString());
            if (!cls)
                throw RequestError("priority must be one of "
                                   "interactive|normal|background");
            request.priority = *cls;
        }
    }

    if (request.verb == Verb::Submit || request.verb == Verb::Resume) {
        if (const JsonValue *deadline = doc.find("deadline_ms")) {
            if (deadline->type() != JsonType::Int ||
                deadline->asInt() < 1 ||
                deadline->asInt() > 1'000'000'000)
                throw RequestError("deadline_ms must be an integer in "
                                   "[1, 1000000000]");
            request.deadlineMs =
                static_cast<std::uint64_t>(deadline->asInt());
        }
    }

    if (request.verb == Verb::Subscribe) {
        if (const JsonValue *from = doc.find("from")) {
            if (from->type() != JsonType::Int || from->asInt() < 0)
                throw RequestError(
                    "'from' must be a non-negative integer");
            request.from = static_cast<std::uint64_t>(from->asInt());
        }
    }
    return request;
}

} // namespace

std::optional<Request>
parseRequest(const std::string &line, JsonValue &error)
{
    JsonValue doc;
    try {
        doc = JsonValue::parse(line);
    } catch (const std::exception &e) {
        error = errorReply(errc::badJson, e.what());
        return std::nullopt;
    }
    try {
        return parseValidated(doc);
    } catch (const RequestError &e) {
        const JsonValue *verb =
            doc.type() == JsonType::Object ? doc.find("verb") : nullptr;
        const bool unknown_verb =
            verb != nullptr && verb->type() == JsonType::String &&
            std::string(e.what()).rfind("unknown verb", 0) == 0;
        error = errorReply(unknown_verb ? errc::unknownVerb
                                        : errc::badRequest,
                           e.what());
        return std::nullopt;
    }
}

} // namespace harp::harpd
