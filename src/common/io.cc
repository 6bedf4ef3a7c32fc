#include "common/io.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

namespace harp::common::io {

namespace {

struct ErrnoEntry
{
    const char *name;
    int value;
};

/** The errnos the fault grammar names; anything else round-trips as
 *  "errno_<n>". */
constexpr ErrnoEntry knownErrnos[] = {
    {"ENOSPC", ENOSPC}, {"EIO", EIO},       {"EDQUOT", EDQUOT},
    {"EACCES", EACCES}, {"EINTR", EINTR},   {"EAGAIN", EAGAIN},
    {"EBADF", EBADF},   {"EROFS", EROFS},   {"ENOENT", ENOENT},
    {"EMFILE", EMFILE}, {"ENOTDIR", ENOTDIR},
};

std::optional<int>
parseErrno(std::string_view name)
{
    for (const ErrnoEntry &entry : knownErrnos)
        if (name == entry.name)
            return entry.value;
    // Numeric fallback, bare ("28") or in errnoName() form
    // ("errno_28"), so describe() output always re-parses.
    if (name.rfind("errno_", 0) == 0)
        name.remove_prefix(6);
    if (!name.empty() &&
        name.find_first_not_of("0123456789") == std::string_view::npos)
        return std::atoi(std::string(name).c_str());
    return std::nullopt;
}

std::error_code
fromErrno(int value)
{
    return std::error_code(value, std::generic_category());
}

std::error_code
lastErrno()
{
    return fromErrno(errno);
}

} // namespace

const char *
opName(Op op)
{
    switch (op) {
    case Op::Open:
        return "open";
    case Op::Write:
        return "write";
    case Op::Fsync:
        return "fsync";
    case Op::Rename:
        return "rename";
    case Op::Close:
        return "close";
    }
    return "unknown";
}

std::optional<Op>
parseOp(std::string_view name)
{
    for (const Op op :
         {Op::Open, Op::Write, Op::Fsync, Op::Rename, Op::Close})
        if (name == opName(op))
            return op;
    return std::nullopt;
}

std::string
errnoName(int value)
{
    for (const ErrnoEntry &entry : knownErrnos)
        if (value == entry.value)
            return entry.name;
    return "errno_" + std::to_string(value);
}

FaultPlan &
FaultPlan::operator=(FaultPlan &&other) noexcept
{
    if (this != &other) {
        std::scoped_lock lock(mutex_, other.mutex_);
        counters_ = other.counters_;
        oneShot_ = std::move(other.oneShot_);
        sticky_ = other.sticky_;
        stickyFrom_ = other.stickyFrom_;
    }
    return *this;
}

void
FaultPlan::injectAt(Op op, std::size_t index, Fault fault)
{
    std::lock_guard<std::mutex> lock(mutex_);
    oneShot_[{static_cast<int>(op), index}] = fault;
}

void
FaultPlan::injectFrom(Op op, std::size_t index, Fault fault)
{
    std::lock_guard<std::mutex> lock(mutex_);
    sticky_[static_cast<std::size_t>(op)] = fault;
    stickyFrom_[static_cast<std::size_t>(op)] = index;
}

FaultPlan::FaultPlan(const std::string &spec)
{
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(',', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string entry = spec.substr(pos, end - pos);
        pos = end + 1;
        if (entry.empty())
            continue;

        const auto bad = [&entry](const std::string &why) {
            throw std::runtime_error("bad fault entry '" + entry +
                                     "': " + why);
        };
        const std::size_t hash = entry.find('#');
        const std::size_t eq = entry.find('=');
        if (hash == std::string::npos || eq == std::string::npos ||
            eq < hash)
            bad("want <op>#<index>[+]=<ERRNO>[/short=<bytes>]");
        const std::optional<Op> op = parseOp(entry.substr(0, hash));
        if (!op.has_value())
            bad("unknown op (want open|write|fsync|rename|close)");

        std::string index_text = entry.substr(hash + 1, eq - hash - 1);
        bool sticky = false;
        if (!index_text.empty() && index_text.back() == '+') {
            sticky = true;
            index_text.pop_back();
        }
        if (index_text.empty() || index_text.find_first_not_of(
                                      "0123456789") != std::string::npos)
            bad("index must be a non-negative integer");
        const std::size_t index = std::stoull(index_text);

        std::string errno_text = entry.substr(eq + 1);
        Fault fault;
        if (const std::size_t slash = errno_text.find('/');
            slash != std::string::npos) {
            const std::string modifier = errno_text.substr(slash + 1);
            errno_text.resize(slash);
            if (modifier.rfind("short=", 0) != 0)
                bad("unknown modifier (want short=<bytes>)");
            const std::string bytes = modifier.substr(6);
            if (bytes.empty() || bytes.find_first_not_of("0123456789") !=
                                     std::string::npos)
                bad("short= wants a byte count");
            if (*op != Op::Write)
                bad("short= applies to write only");
            fault.shortBytes = std::stoull(bytes);
        }
        const std::optional<int> value = parseErrno(errno_text);
        if (!value.has_value())
            bad("unknown errno '" + errno_text + "'");
        fault.ec = fromErrno(*value);

        if (sticky)
            injectFrom(*op, index, fault);
        else
            injectAt(*op, index, fault);
    }
}

std::optional<Fault>
FaultPlan::next(Op op)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t slot = static_cast<std::size_t>(op);
    const std::size_t index = counters_[slot]++;
    if (sticky_[slot].has_value() && index >= stickyFrom_[slot])
        return sticky_[slot];
    const auto it = oneShot_.find({static_cast<int>(op), index});
    if (it == oneShot_.end())
        return std::nullopt;
    return it->second;
}

std::size_t
FaultPlan::consumed(Op op) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_[static_cast<std::size_t>(op)];
}

std::string
FaultPlan::describe() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> entries;
    const auto format = [](Op op, std::size_t index, bool sticky,
                           const Fault &fault) {
        std::string text = std::string(opName(op)) + "#" +
                           std::to_string(index) + (sticky ? "+" : "") +
                           "=" + errnoName(fault.ec.value());
        if (fault.shortBytes != std::string::npos)
            text += "/short=" + std::to_string(fault.shortBytes);
        return text;
    };
    for (const auto &[key, fault] : oneShot_)
        entries.push_back(format(static_cast<Op>(key.first), key.second,
                                 false, fault));
    for (std::size_t slot = 0; slot < opCount; ++slot)
        if (sticky_[slot].has_value())
            entries.push_back(format(static_cast<Op>(slot),
                                     stickyFrom_[slot], true,
                                     *sticky_[slot]));
    std::string spec;
    for (const std::string &entry : entries)
        spec += (spec.empty() ? "" : ",") + entry;
    return spec;
}

File::~File()
{
    (void)close();
}

std::error_code
File::open(const std::string &path, bool truncate, FaultPlan *plan)
{
    (void)close();
    path_ = path;
    plan_ = plan;
    if (plan_ != nullptr) {
        if (const std::optional<Fault> fault = plan_->next(Op::Open))
            return fault->ec;
    }
    const int flags =
        O_WRONLY | O_CREAT | O_CLOEXEC | (truncate ? O_TRUNC : O_APPEND);
    int fd;
    do {
        fd = ::open(path.c_str(), flags, 0644);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0)
        return lastErrno();
    fd_ = fd;
    return {};
}

std::error_code
File::writeAll(std::string_view data)
{
    if (fd_ < 0)
        return fromErrno(EBADF);
    if (plan_ != nullptr) {
        for (;;) {
            const std::optional<Fault> fault = plan_->next(Op::Write);
            if (!fault.has_value())
                break;
            // Injected EINTR exercises the retry loop: consume it and
            // go around, exactly as a real interrupted write would.
            if (fault->ec.value() == EINTR)
                continue;
            if (fault->shortBytes != std::string::npos) {
                // A torn tail, for real: persist the prefix so the
                // on-disk state is exactly what a crashed short write
                // leaves behind, then report the failure.
                const std::string_view prefix =
                    data.substr(0, std::min(fault->shortBytes,
                                            data.size()));
                std::size_t done = 0;
                while (done < prefix.size()) {
                    const ssize_t n = ::write(fd_, prefix.data() + done,
                                              prefix.size() - done);
                    if (n < 0) {
                        if (errno == EINTR)
                            continue;
                        break;
                    }
                    done += static_cast<std::size_t>(n);
                }
            }
            return fault->ec;
        }
    }
    std::size_t done = 0;
    while (done < data.size()) {
        const ssize_t n =
            ::write(fd_, data.data() + done, data.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return lastErrno();
        }
        done += static_cast<std::size_t>(n);
    }
    return {};
}

std::error_code
File::sync()
{
    if (fd_ < 0)
        return fromErrno(EBADF);
    if (plan_ != nullptr) {
        if (const std::optional<Fault> fault = plan_->next(Op::Fsync))
            return fault->ec;
    }
    int rc;
    do {
        rc = ::fsync(fd_);
    } while (rc != 0 && errno == EINTR);
    return rc == 0 ? std::error_code() : lastErrno();
}

std::error_code
File::close()
{
    if (fd_ < 0)
        return {};
    const int fd = fd_;
    fd_ = -1;
    std::error_code injected;
    if (plan_ != nullptr) {
        if (const std::optional<Fault> fault = plan_->next(Op::Close))
            injected = fault->ec;
    }
    // Close the descriptor regardless: an injected close failure must
    // not leak the fd (EINTR-after-close is unspecified; POSIX says
    // the fd is gone either way, so never retry close).
    const int rc = ::close(fd);
    if (injected)
        return injected;
    return rc == 0 ? std::error_code() : lastErrno();
}

std::error_code
renamePath(const std::string &from, const std::string &to, FaultPlan *plan)
{
    if (plan != nullptr) {
        if (const std::optional<Fault> fault = plan->next(Op::Rename))
            return fault->ec;
    }
    return ::rename(from.c_str(), to.c_str()) == 0 ? std::error_code()
                                                   : lastErrno();
}

std::error_code
syncDir(const std::string &dir, FaultPlan *plan)
{
    if (plan != nullptr) {
        if (const std::optional<Fault> fault = plan->next(Op::Fsync))
            return fault->ec;
    }
    int fd;
    do {
        fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0)
        return lastErrno();
    int rc;
    do {
        rc = ::fsync(fd);
    } while (rc != 0 && errno == EINTR);
    const std::error_code ec =
        rc == 0 ? std::error_code() : lastErrno();
    ::close(fd);
    return ec;
}

bool
isRetriable(std::error_code ec)
{
    return ec.value() == ENOSPC || ec.value() == EDQUOT ||
           ec.value() == EAGAIN;
}

} // namespace harp::common::io
