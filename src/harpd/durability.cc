#include "harpd/durability.hh"

#include <filesystem>

namespace harp::harpd {

namespace fs = std::filesystem;
namespace io = common::io;
using runner::JsonValue;

void
orDegrade(std::error_code ec, const std::string &what)
{
    if (ec)
        throw CheckpointIoError(what + ": " + ec.message(), ec);
}

namespace {

/** Open, write, fsync and close @p path through the io seam.
 *  @throws CheckpointIoError */
void
writeDurably(const std::string &path, const std::string &text,
             io::FaultPlan *plan)
{
    io::File out;
    orDegrade(out.open(path, /*truncate=*/true, plan),
              "cannot open " + path);
    orDegrade(out.writeAll(text), "cannot write " + path);
    orDegrade(out.sync(), "cannot fsync " + path);
    orDegrade(out.close(), "cannot close " + path);
}

} // namespace

void
prepareStaging(const std::string &staging)
{
    std::error_code ec;
    fs::remove_all(staging, ec);
    fs::create_directories(staging, ec);
    orDegrade(ec, "cannot create staging dir " + staging);
}

void
publishResults(const std::string &staging, const std::string &results,
               const std::string &summary, io::FaultPlan *plan)
{
    writeDurably((fs::path(staging) / "summary.json").string(), summary,
                 plan);
    if (!fs::exists(results))
        orDegrade(io::renamePath(staging, results, plan),
                  "cannot publish " + results);
    orDegrade(io::syncDir(fs::path(results).parent_path().string(), plan),
              "cannot fsync results dir");
}

void
writeSnapshot(const std::string &path, const std::string &text)
{
    try {
        writeDurably(path + ".tmp", text, nullptr);
    } catch (const CheckpointIoError &) {
        return;
    }
    (void)!io::renamePath(path + ".tmp", path, nullptr);
}

void
ServedSink::onResult(std::size_t job, const std::string &line, bool fresh)
{
    if (failed_)
        return;
    if (std::error_code ec = file_.writeAll(line + "\n")) {
        fail(ec, "results file " + file_.path());
        return;
    }
    // Empty lines mark errored jobs (reported after the stream); they
    // must never be persisted as completed work.
    if (fresh && !line.empty() && checkpoint_ != nullptr) {
        if (std::error_code ec =
                checkpoint_->add({experimentIndex_, job, line})) {
            fail(ec, "checkpoint " + checkpoint_->path());
            return;
        }
    }
    if (emit_) {
        JsonValue event = JsonValue::object();
        event.set("type", JsonValue("result"));
        event.set("campaign", JsonValue(campaignId_));
        event.set("experiment", JsonValue(experimentName_));
        event.set("job", JsonValue(job));
        event.set("line", JsonValue(line));
        emit_(std::move(event));
    }
}

void
ServedSink::fail(std::error_code ec, const std::string &where)
{
    failed_ = true;
    if (fail_)
        fail_(ec, where);
}

} // namespace harp::harpd
