#include "harpd/checkpoint.hh"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/bits.hh"
#include "runner/campaign.hh"
#include "runner/json.hh"

namespace harp::harpd {

using runner::JsonType;
using runner::JsonValue;

namespace {

std::string
framed(const std::string &payload)
{
    return runner::formatResultHash(common::fnv1a64(payload)) + " " +
           payload + "\n";
}

JsonValue
headerJson(const CheckpointHeader &header)
{
    JsonValue doc = JsonValue::object();
    doc.set("type", JsonValue("header"));
    doc.set("campaign", JsonValue(header.campaign));
    JsonValue experiments = JsonValue::array();
    for (const std::string &name : header.experiments)
        experiments.push(JsonValue(name));
    doc.set("experiments", experiments);
    doc.set("seed", JsonValue(std::to_string(header.seed)));
    doc.set("repeat", JsonValue(header.repeat));
    if (!header.tenant.empty() && header.tenant != "default")
        doc.set("tenant", JsonValue(header.tenant));
    if (header.priority != common::PriorityClass::Normal)
        doc.set("priority",
                JsonValue(common::priorityClassName(header.priority)));
    JsonValue overrides = JsonValue::object();
    for (const auto &[key, value] : header.overrides)
        overrides.set(key, JsonValue(value));
    doc.set("overrides", overrides);
    return doc;
}

/** Parse one verified payload; nullopt on schema mismatch. */
std::optional<CheckpointHeader>
parseHeader(const JsonValue &doc)
{
    const JsonValue *type = doc.find("type");
    const JsonValue *campaign = doc.find("campaign");
    const JsonValue *experiments = doc.find("experiments");
    const JsonValue *seed = doc.find("seed");
    const JsonValue *repeat = doc.find("repeat");
    if (type == nullptr || type->type() != JsonType::String ||
        type->asString() != "header" || campaign == nullptr ||
        campaign->type() != JsonType::String || experiments == nullptr ||
        experiments->type() != JsonType::Array || seed == nullptr ||
        seed->type() != JsonType::String || repeat == nullptr ||
        repeat->type() != JsonType::Int || repeat->asInt() < 1)
        return std::nullopt;

    CheckpointHeader header;
    header.campaign = campaign->asString();
    for (std::size_t i = 0; i < experiments->size(); ++i) {
        if (experiments->at(i).type() != JsonType::String)
            return std::nullopt;
        header.experiments.push_back(experiments->at(i).asString());
    }
    try {
        header.seed = std::stoull(seed->asString());
    } catch (const std::exception &) {
        return std::nullopt;
    }
    header.repeat = static_cast<std::size_t>(repeat->asInt());
    if (const JsonValue *tenant = doc.find("tenant")) {
        if (tenant->type() != JsonType::String ||
            tenant->asString().empty())
            return std::nullopt;
        header.tenant = tenant->asString();
    }
    if (const JsonValue *priority = doc.find("priority")) {
        if (priority->type() != JsonType::String)
            return std::nullopt;
        const auto cls = common::parsePriorityClass(priority->asString());
        if (!cls)
            return std::nullopt;
        header.priority = *cls;
    }
    if (const JsonValue *overrides = doc.find("overrides")) {
        if (overrides->type() != JsonType::Object)
            return std::nullopt;
        for (const auto &[key, value] : overrides->members()) {
            if (value.type() != JsonType::String)
                return std::nullopt;
            header.overrides[key] = value.asString();
        }
    }
    return header;
}

std::optional<CheckpointRecord>
parseRecord(const JsonValue &doc)
{
    const JsonValue *type = doc.find("type");
    const JsonValue *experiment = doc.find("exp");
    const JsonValue *job = doc.find("job");
    const JsonValue *line = doc.find("line");
    if (type == nullptr || type->type() != JsonType::String ||
        type->asString() != "job" || experiment == nullptr ||
        experiment->type() != JsonType::Int || experiment->asInt() < 0 ||
        job == nullptr || job->type() != JsonType::Int ||
        job->asInt() < 0 || line == nullptr ||
        line->type() != JsonType::String || line->asString().empty())
        return std::nullopt;
    CheckpointRecord record;
    record.experiment = static_cast<std::size_t>(experiment->asInt());
    record.job = static_cast<std::size_t>(job->asInt());
    record.line = line->asString();
    return record;
}

/** Verify "<hex16> <payload>" framing; returns the payload document. */
std::optional<JsonValue>
verifyFrame(const std::string &frame)
{
    if (frame.size() < 18 || frame[16] != ' ')
        return std::nullopt;
    const std::string digest = frame.substr(0, 16);
    if (digest.find_first_not_of("0123456789abcdef") != std::string::npos)
        return std::nullopt;
    const std::string payload = frame.substr(17);
    if (runner::formatResultHash(common::fnv1a64(payload)) != digest)
        return std::nullopt;
    try {
        return JsonValue::parse(payload);
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

} // namespace

CheckpointWriter::CheckpointWriter(const std::string &path,
                                   const CheckpointHeader &header,
                                   common::io::FaultPlan *plan)
{
    path_ = path;
    if (std::error_code ec = file_.open(path, /*truncate=*/true, plan))
        throw CheckpointIoError("cannot open checkpoint: " + path + ": " +
                                    ec.message(),
                                ec);
    std::error_code ec = file_.writeAll(framed(headerJson(header).dump()));
    if (!ec)
        ec = file_.sync();
    if (ec)
        throw CheckpointIoError("cannot write checkpoint header: " +
                                    path + ": " + ec.message(),
                                ec);
}

CheckpointWriter::CheckpointWriter(const std::string &path,
                                   common::io::FaultPlan *plan)
{
    path_ = path;
    if (std::error_code ec = file_.open(path, /*truncate=*/false, plan))
        throw CheckpointIoError("cannot open checkpoint: " + path + ": " +
                                    ec.message(),
                                ec);
}

std::error_code
CheckpointWriter::add(const CheckpointRecord &record)
{
    JsonValue doc = JsonValue::object();
    doc.set("type", JsonValue("job"));
    doc.set("exp", JsonValue(record.experiment));
    doc.set("job", JsonValue(record.job));
    doc.set("line", JsonValue(record.line));
    // Write + fsync per record: the bytes reach the device, so neither
    // a killed daemon nor a lying page cache can lose an acknowledged
    // record — the record is durable before the subscriber sees it.
    if (std::error_code ec = file_.writeAll(framed(doc.dump())))
        return ec;
    return file_.sync();
}

std::optional<LoadedCheckpoint>
loadCheckpoint(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream raw;
    raw << in.rdbuf();
    const std::string text = raw.str();

    LoadedCheckpoint loaded;
    bool have_header = false;
    std::size_t good_bytes = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t newline = text.find('\n', pos);
        if (newline == std::string::npos) {
            // Partial trailing record: the write the kill interrupted.
            loaded.recovered = true;
            break;
        }
        const std::string frame = text.substr(pos, newline - pos);
        const std::optional<JsonValue> doc = verifyFrame(frame);
        if (!doc.has_value()) {
            loaded.recovered = true;
            break;
        }
        if (!have_header) {
            std::optional<CheckpointHeader> header = parseHeader(*doc);
            if (!header.has_value())
                return std::nullopt; // unusable: no valid header
            loaded.header = std::move(*header);
            have_header = true;
        } else {
            std::optional<CheckpointRecord> record = parseRecord(*doc);
            if (!record.has_value()) {
                loaded.recovered = true;
                break;
            }
            loaded.records.push_back(std::move(*record));
        }
        pos = newline + 1;
        good_bytes = pos;
    }
    if (!have_header)
        return std::nullopt;

    if (loaded.recovered) {
        std::error_code ec;
        std::filesystem::resize_file(path, good_bytes, ec);
        if (ec)
            return std::nullopt;
    }
    return loaded;
}

} // namespace harp::harpd
