#include "harpd/net.hh"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

namespace harp::harpd {

void
Fd::reset()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
SelfPipe::open()
{
    int fds[2];
    if (::pipe(fds) != 0)
        throw std::runtime_error(std::string("pipe: ") +
                                 std::strerror(errno));
    read_ = Fd(fds[0]);
    write_ = Fd(fds[1]);
    const int flags = ::fcntl(write_.get(), F_GETFL, 0);
    if (flags < 0 ||
        ::fcntl(write_.get(), F_SETFL, flags | O_NONBLOCK) != 0)
        throw std::runtime_error(std::string("pipe: ") +
                                 std::strerror(errno));
}

void
SelfPipe::poke() const
{
    if (!write_.valid())
        return;
    const char byte = 1;
    ssize_t n;
    do {
        n = ::write(write_.get(), &byte, 1);
    } while (n < 0 && errno == EINTR);
}

void
SelfPipe::drain() const
{
    char drained[64];
    (void)!::read(read_.get(), drained, sizeof drained);
}

namespace {

sockaddr_un
unixAddress(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("socket path too long (max " +
                                 std::to_string(sizeof(addr.sun_path) - 1) +
                                 " bytes): " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

} // namespace

Fd
listenUnix(const std::string &path, int backlog)
{
    const sockaddr_un addr = unixAddress(path);
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid())
        throw std::runtime_error(std::string("socket: ") +
                                 std::strerror(errno));
    ::unlink(path.c_str());
    if (::bind(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0)
        throw std::runtime_error("bind " + path + ": " +
                                 std::strerror(errno));
    if (::listen(fd.get(), backlog) != 0)
        throw std::runtime_error("listen " + path + ": " +
                                 std::strerror(errno));
    return fd;
}

Fd
connectUnix(const std::string &path, int timeout_ms, bool *timed_out)
{
    if (timed_out != nullptr)
        *timed_out = false;
    sockaddr_un addr{};
    try {
        addr = unixAddress(path);
    } catch (const std::exception &) {
        return Fd();
    }
    Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid())
        return Fd();
    if (timeout_ms <= 0) {
        if (::connect(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            return Fd();
        return fd;
    }

    // Bounded connect: go nonblocking, poll for writability, check
    // SO_ERROR, then restore blocking mode for the caller.
    const int flags = ::fcntl(fd.get(), F_GETFL, 0);
    if (flags < 0 ||
        ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK) != 0)
        return Fd();
    if (::connect(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (errno != EINPROGRESS && errno != EAGAIN)
            return Fd();
        pollfd pfd{fd.get(), POLLOUT, 0};
        int rc;
        do {
            rc = ::poll(&pfd, 1, timeout_ms);
        } while (rc < 0 && errno == EINTR);
        if (rc <= 0) {
            if (rc == 0 && timed_out != nullptr)
                *timed_out = true;
            return Fd(); // timeout or poll failure
        }
        int err = 0;
        socklen_t len = sizeof(err);
        if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) !=
                0 ||
            err != 0)
            return Fd();
    }
    if (::fcntl(fd.get(), F_SETFL, flags) != 0)
        return Fd();
    return fd;
}

bool
setIoTimeout(int fd, int timeout_ms)
{
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
    return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) ==
               0 &&
           ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) ==
               0;
}

bool
sendAll(int fd, const std::string &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

LineReader::Result
LineReader::readLine(std::string &line, std::size_t max_line)
{
    for (;;) {
        const std::size_t pos = buffer_.find('\n');
        if (pos != std::string::npos) {
            if (pos > max_line)
                return Result::Oversized;
            line.assign(buffer_, 0, pos);
            buffer_.erase(0, pos + 1);
            return Result::Line;
        }
        if (buffer_.size() > max_line)
            return Result::Oversized;
        if (sawEof_)
            return buffer_.empty() ? Result::Eof : Result::EofPartial;

        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return Result::Timeout;
            return Result::Error;
        }
        if (n == 0) {
            sawEof_ = true;
            continue;
        }
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

} // namespace harp::harpd
