/**
 * @file
 * Crash-safe campaign checkpoints: the state harpd needs to resume a
 * killed multi-hour grid without recomputing finished jobs.
 *
 * A checkpoint is an append-only text file of checksummed records:
 *
 *   <fnv1a64 hex16> SP <single-line JSON payload> LF
 *
 * The first record is the header (the submit parameters — enough to
 * rebuild the CampaignSessions); every following record stores one
 * completed job's exact JSONL line. Appends are flushed per record, so
 * a SIGKILL loses at most the record being written — and exactly that
 * failure mode is recoverable: the loader verifies each record's
 * checksum and, at the first corrupt or partial record, truncates the
 * file back to the last good byte and carries on with what survived
 * (the lost job is simply recomputed). A checkpoint whose *header* is
 * unreadable is unusable and reported as such.
 *
 * Byte-identity across kill/resume follows: restored lines re-enter
 * the output stream verbatim via CampaignSession::restore, and
 * recomputed jobs derive the same per-(experiment, point, repeat)
 * seeds as the uninterrupted run.
 */

#ifndef HARP_HARPD_CHECKPOINT_HH
#define HARP_HARPD_CHECKPOINT_HH

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "common/fair_scheduler.hh"
#include "common/io.hh"

namespace harp::harpd {

/** The submit parameters a resumed daemon must reconstruct. */
struct CheckpointHeader
{
    std::string campaign;
    std::vector<std::string> experiments;
    std::uint64_t seed = 1;
    std::size_t repeat = 1;
    std::map<std::string, std::string> overrides;
    /** Owner for admission accounting; absent in pre-quota checkpoints
     *  (which load as the default tenant). */
    std::string tenant = "default";
    /** Service class for the fair scheduler; absent in older
     *  checkpoints (which load as Normal). Deadlines deliberately do
     *  NOT persist: a deadline is a property of the submitting caller,
     *  not of the computation, so resume starts without one unless the
     *  resume request sets a new deadline_ms. */
    common::PriorityClass priority = common::PriorityClass::Normal;
};

/** An I/O failure creating a checkpoint, carrying the errno so the
 *  server can degrade with a structured status instead of crashing. */
class CheckpointIoError : public std::runtime_error
{
  public:
    CheckpointIoError(const std::string &what, std::error_code ec)
        : std::runtime_error(what), code(ec)
    {
    }

    std::error_code code;
};

/** One completed (experiment, job) with its exact JSONL line. */
struct CheckpointRecord
{
    /** Index into CheckpointHeader::experiments (selector order). */
    std::size_t experiment = 0;
    /** Job index within that experiment (point-major, repeat-minor). */
    std::size_t job = 0;
    std::string line;
};

/** Appends checksummed records through the common::io seam, fsyncing
 *  each one so a killed process — or a failed disk — loses at most the
 *  in-flight record and every failure surfaces as an error code. */
class CheckpointWriter
{
  public:
    /** Create/truncate @p path and write (and fsync) the header.
     *  @throws CheckpointIoError when the file cannot be written. */
    CheckpointWriter(const std::string &path,
                     const CheckpointHeader &header,
                     common::io::FaultPlan *plan = nullptr);

    /** Reopen @p path for appending after a successful load (the
     *  header is already on disk).
     *  @throws CheckpointIoError when the file cannot be opened. */
    explicit CheckpointWriter(const std::string &path,
                              common::io::FaultPlan *plan = nullptr);

    /** Append one record: write + fsync. A non-empty error code means
     *  the record may not be durable — the caller must treat the
     *  campaign as degraded, not carry on. */
    [[nodiscard]] std::error_code add(const CheckpointRecord &record);

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    common::io::File file_;
};

/** A successfully loaded checkpoint. */
struct LoadedCheckpoint
{
    CheckpointHeader header;
    std::vector<CheckpointRecord> records;
    /** True when a corrupt/partial tail was cut off during load. */
    bool recovered = false;
};

/**
 * Load @p path, verifying every record checksum. On the first bad
 * record the file is truncated to the preceding good byte
 * (recovered = true) and loading stops. Returns std::nullopt when the
 * file is missing or its header record is unreadable.
 */
std::optional<LoadedCheckpoint> loadCheckpoint(const std::string &path);

} // namespace harp::harpd

#endif // HARP_HARPD_CHECKPOINT_HH
