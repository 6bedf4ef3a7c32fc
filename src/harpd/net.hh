/**
 * @file
 * Thin POSIX plumbing for harpd's newline-delimited JSON transport:
 * AF_UNIX stream sockets, full-buffer sends that never raise SIGPIPE,
 * and a buffered line reader with an explicit oversized-line outcome.
 *
 * Kept free of protocol knowledge so both the server and the client
 * (and the fault-injection tests, which need raw access to half-close
 * and mid-line disconnects) build on the same primitives.
 */

#ifndef HARP_HARPD_NET_HH
#define HARP_HARPD_NET_HH

#include <cstddef>
#include <string>

namespace harp::harpd {

/** Owning file-descriptor wrapper (close-on-destroy, movable). */
class Fd
{
  public:
    Fd() = default;
    explicit Fd(int fd) : fd_(fd) {}
    ~Fd() { reset(); }

    Fd(Fd &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
    Fd &operator=(Fd &&other) noexcept
    {
        if (this != &other) {
            reset();
            fd_ = other.fd_;
            other.fd_ = -1;
        }
        return *this;
    }
    Fd(const Fd &) = delete;
    Fd &operator=(const Fd &) = delete;

    int get() const { return fd_; }
    bool valid() const { return fd_ >= 0; }
    /** Release ownership without closing. */
    int release()
    {
        const int fd = fd_;
        fd_ = -1;
        return fd;
    }
    void reset();

  private:
    int fd_ = -1;
};

/** A self-pipe: poke() wakes a poll() on readFd(). poke() is
 *  async-signal-safe and never blocks: the write end is nonblocking,
 *  and a full pipe already holds a wake-up byte. */
class SelfPipe
{
  public:
    /** @throws std::runtime_error when the pipe cannot be set up. */
    void open();
    /** No-op before open(). */
    void poke() const;
    /** Consume pending wake-ups; one read coalesces a burst. */
    void drain() const;
    int readFd() const { return read_.get(); }

  private:
    Fd read_;
    Fd write_;
};

/**
 * Bind + listen on an AF_UNIX stream socket at @p path (any stale
 * socket file is unlinked first).
 * @throws std::runtime_error on failure (path too long, bind error).
 */
Fd listenUnix(const std::string &path, int backlog = 16);

/** Connect to the AF_UNIX socket at @p path; invalid Fd on failure.
 *  With @p timeout_ms > 0 the connect itself is bounded (nonblocking
 *  connect + poll); 0 keeps the classic blocking behavior. When the
 *  deadline (not some other error) killed the attempt, @p timed_out
 *  is set. */
Fd connectUnix(const std::string &path, int timeout_ms = 0,
               bool *timed_out = nullptr);

/** Bound every subsequent recv/send on @p fd to @p timeout_ms
 *  (SO_RCVTIMEO/SO_SNDTIMEO); 0 clears the deadline. */
bool setIoTimeout(int fd, int timeout_ms);

/** Write all of @p data (MSG_NOSIGNAL — a dead peer is a false return,
 *  never a SIGPIPE). */
bool sendAll(int fd, const std::string &data);

/**
 * Buffered reader splitting a socket stream into '\n'-terminated
 * lines. One reader per connection; not thread-safe.
 */
class LineReader
{
  public:
    enum class Result
    {
        Line,      ///< A complete line was produced (newline stripped).
        Eof,       ///< Orderly end of stream with no buffered partial.
        EofPartial,///< Stream ended mid-line (half-closed peer).
        Oversized, ///< Line length exceeded the limit before newline.
        Error,     ///< recv() failed.
        Timeout,   ///< recv() hit the SO_RCVTIMEO deadline.
    };

    explicit LineReader(int fd) : fd_(fd) {}

    /** Read the next line (at most @p max_line bytes). */
    Result readLine(std::string &line, std::size_t max_line);

  private:
    int fd_;
    std::string buffer_;
    bool sawEof_ = false;
};

} // namespace harp::harpd

#endif // HARP_HARPD_NET_HH
