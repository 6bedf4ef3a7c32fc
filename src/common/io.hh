/**
 * @file
 * Injectable I/O seam for durability-critical writers.
 *
 * Every operation that can lose or corrupt persistent state — write,
 * fsync, rename, close, open — goes through this layer and reports a
 * `std::error_code` instead of throwing out of server threads. The
 * seam exists for two reasons:
 *
 *  1. **Containment.** Callers (harpd's checkpoint and staging→publish
 *     paths) handle every failure explicitly: degrade, never corrupt.
 *  2. **Injection.** A `FaultPlan` deterministically fails the Nth
 *     occurrence of an operation with a chosen errno — including short
 *     writes that leave a genuinely torn tail on disk and sticky
 *     failures that persist (ENOSPC) until the plan is removed. Chaos
 *     tests schedule faults by operation index, so every run is
 *     reproducible from its schedule string alone.
 *
 * Plan spec grammar (one entry per fault, comma separated):
 *
 *     <op>#<index>[+]=<ERRNO>[/short=<bytes>]
 *
 *     op     ::= open | write | fsync | rename | close
 *     index  ::= 0-based count of that operation within the plan
 *     +      ::= sticky: every occurrence >= index fails (ENOSPC-style)
 *     ERRNO  ::= ENOSPC | EIO | EDQUOT | EACCES | EINTR | ... | <int>
 *     short  ::= write only: persist that many bytes, then fail (a
 *                torn tail the reader must truncate-recover)
 *
 * Example: `write#4+=ENOSPC/short=10` — the 5th write persists 10
 * bytes then fails with ENOSPC, as does every write after it.
 * Injected EINTR is consumed by the retry loop inside writeAll — it
 * witnesses the retry, never surfaces to the caller.
 */

#ifndef HARP_COMMON_IO_HH
#define HARP_COMMON_IO_HH

#include <array>
#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace harp::common::io {

/** Operations a FaultPlan can schedule faults for. */
enum class Op
{
    Open,
    Write,
    Fsync,
    Rename,
    Close,
};
inline constexpr std::size_t opCount = 5;

const char *opName(Op op);
std::optional<Op> parseOp(std::string_view name);

/** Symbolic name for the errnos the fault grammar supports
 *  ("ENOSPC", ...); "errno_<n>" for anything else. */
std::string errnoName(int value);

/** One scheduled fault. */
struct Fault
{
    std::error_code ec;
    /** Write only: bytes genuinely persisted before the failure
     *  (npos = none; the write fails atomically). */
    std::size_t shortBytes = std::string::npos;
};

/**
 * A deterministic schedule of I/O faults, consulted (and consumed) by
 * File / renamePath / syncDir on every operation. Thread-safe: the
 * per-op occurrence counters are advanced under a mutex, so a plan can
 * be shared by every writer in a process. Determinism is up to the
 * caller: with one campaign in flight, harpd's durable writes happen
 * in a fixed order, so "the Nth write" names the same write each run.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /**
     * Parse the documented spec grammar.
     * @throws std::runtime_error naming the offending entry.
     */
    explicit FaultPlan(const std::string &spec);

    FaultPlan &operator=(FaultPlan &&other) noexcept;
    FaultPlan(const FaultPlan &) = delete;
    FaultPlan &operator=(const FaultPlan &) = delete;

    /** Fail the @p index-th occurrence of @p op (0-based). */
    void injectAt(Op op, std::size_t index, Fault fault);

    /** Fail every occurrence of @p op from @p index on (sticky —
     *  ENOSPC does not clear by itself). */
    void injectFrom(Op op, std::size_t index, Fault fault);

    /** Consume one occurrence of @p op; the fault to inject, if any. */
    std::optional<Fault> next(Op op);

    /** Occurrences of @p op consumed so far. */
    std::size_t consumed(Op op) const;

    /** The schedule, re-serialized in the spec grammar (for logs: a
     *  chaos failure is reproducible from this line). */
    std::string describe() const;

  private:
    mutable std::mutex mutex_;
    std::array<std::size_t, opCount> counters_{};
    std::map<std::pair<int, std::size_t>, Fault> oneShot_;
    std::array<std::optional<Fault>, opCount> sticky_;
    std::array<std::size_t, opCount> stickyFrom_{};
};

/**
 * Unbuffered POSIX file handle with error-code results on every
 * operation. One writeAll() call counts as one `write` op against the
 * plan regardless of how many syscalls the kernel needs; EINTR and
 * OS-level partial writes are retried internally.
 */
class File
{
  public:
    File() = default;
    ~File();

    File(const File &) = delete;
    File &operator=(const File &) = delete;

    /** Open (create) @p path for writing; truncate or append. */
    std::error_code open(const std::string &path, bool truncate,
                         FaultPlan *plan = nullptr);

    /** Write all of @p data (retrying EINTR / partial syscalls). On an
     *  injected short write, the prefix really reaches the file — the
     *  torn-tail failure mode, on demand. */
    std::error_code writeAll(std::string_view data);

    /** fsync: the bytes reach the device, not just the page cache. */
    std::error_code sync();

    /** Close (idempotent); reports the close error once. */
    std::error_code close();

    bool isOpen() const { return fd_ >= 0; }
    const std::string &path() const { return path_; }

  private:
    int fd_ = -1;
    std::string path_;
    FaultPlan *plan_ = nullptr;
};

/** ::rename through the seam. */
std::error_code renamePath(const std::string &from, const std::string &to,
                           FaultPlan *plan = nullptr);

/** fsync a directory, making renames/creates inside it durable. */
std::error_code syncDir(const std::string &dir, FaultPlan *plan = nullptr);

/** Transient-resource errors worth retrying once space frees up
 *  (ENOSPC/EDQUOT), as opposed to e.g. EIO (needs an operator). */
bool isRetriable(std::error_code ec);

} // namespace harp::common::io

#endif // HARP_COMMON_IO_HH
