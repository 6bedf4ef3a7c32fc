/**
 * @file
 * harpd's durable path: the per-experiment result sink (staged JSONL +
 * checkpoint, both ahead of the stream), staging, the atomic publish
 * and the status snapshot. Every failure here is an I/O failure — it
 * degrades the campaign, never corrupts it.
 */

#ifndef HARP_HARPD_DURABILITY_HH
#define HARP_HARPD_DURABILITY_HH

#include <functional>
#include <string>
#include <system_error>

#include "common/io.hh"
#include "harpd/checkpoint.hh"
#include "runner/session.hh"

namespace harp::harpd {

/** @throws CheckpointIoError naming @p what when @p ec is set. */
void orDegrade(std::error_code ec, const std::string &what);

/** Replace @p staging with an empty directory.
 *  @throws CheckpointIoError */
void prepareStaging(const std::string &staging);

/**
 * Publish atomically: write + fsync summary.json into @p staging,
 * rename it to @p results, fsync the parent so the rename is durable.
 * An existing @p results means a previous run published and died
 * before dropping its checkpoint; it is left as it is.
 * @throws CheckpointIoError
 */
void publishResults(const std::string &staging, const std::string &results,
                    const std::string &summary, common::io::FaultPlan *plan);

/** Best-effort tmp + rename of @p text to @p path: readers never see a
 *  torn file, and a failure never reaches the caller. */
void writeSnapshot(const std::string &path, const std::string &text);

/**
 * Per-experiment sink of one served campaign: every line goes to the
 * staged results file; fresh lines also reach the checkpoint — written
 * and fsynced *before* any client sees them — and only then @p emit.
 * The first I/O failure latches: it is reported once through @p fail
 * and every later line is dropped, so no un-recorded result ever
 * reaches a client.
 */
class ServedSink : public runner::ResultSink
{
  public:
    using Emit = std::function<void(runner::JsonValue)>;
    using Fail = std::function<void(std::error_code, const std::string &)>;

    ServedSink(common::io::File &file, CheckpointWriter *checkpoint,
               std::size_t experiment_index,
               const std::string &experiment_name,
               const std::string &campaign_id, Emit emit, Fail fail)
        : file_(file), checkpoint_(checkpoint),
          experimentIndex_(experiment_index),
          experimentName_(experiment_name), campaignId_(campaign_id),
          emit_(std::move(emit)), fail_(std::move(fail))
    {
    }

    void onResult(std::size_t job, const std::string &line,
                  bool fresh) override;

    bool failed() const { return failed_; }

  private:
    void fail(std::error_code ec, const std::string &where);

    common::io::File &file_;
    CheckpointWriter *checkpoint_;
    std::size_t experimentIndex_;
    const std::string &experimentName_;
    const std::string &campaignId_;
    Emit emit_;
    Fail fail_;
    bool failed_ = false;
};

} // namespace harp::harpd

#endif // HARP_HARPD_DURABILITY_HH
