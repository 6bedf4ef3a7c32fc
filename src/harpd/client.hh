/**
 * @file
 * harpd client: connect, send request lines, read reply lines — with
 * optional connect/request deadlines so a wedged daemon produces a
 * TimeoutError instead of a hung client, plus the retry/backoff
 * primitives the CLI builds on (decorrelated-jitter Backoff).
 *
 * Used by the `harpd_client` CLI and by the integration/fault-injection
 * tests, which additionally need raw socket control (halfClose,
 * abortive close) to exercise the server's failure paths.
 */

#ifndef HARP_HARPD_CLIENT_HH
#define HARP_HARPD_CLIENT_HH

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/rng.hh"
#include "harpd/net.hh"
#include "runner/json.hh"

namespace harp::harpd {

/** Deadlines for one client connection. Zero = unbounded (the classic
 *  blocking behavior the in-process tests rely on). */
struct ClientOptions
{
    /** Bound on establishing the connection. */
    int connectTimeoutMs = 5000;
    /** Bound on each recv/send once connected; a campaign stream sees
     *  heartbeat traffic well inside any sane deadline, so a silent
     *  daemon is a fault, not patience. */
    int ioTimeoutMs = 0;
};

/** A bounded operation ran out its deadline — the daemon may be
 *  wedged. Distinct from a lost connection: retrying may still work. */
class TimeoutError : public std::runtime_error
{
  public:
    explicit TimeoutError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * Exponential backoff with decorrelated jitter: each delay is drawn
 * uniformly from [base, prev*3), capped. Deterministic given the seed,
 * so retry schedules are testable; seeded from the PID-derived default
 * in the CLI so concurrent clients decorrelate.
 */
class Backoff
{
  public:
    Backoff(int base_ms, int cap_ms, std::uint64_t seed)
        : base_(base_ms), cap_(cap_ms), prev_(base_ms), rng_(seed)
    {
    }

    /** The next delay in ms (also advances the schedule). */
    int nextDelayMs()
    {
        const std::uint64_t span =
            static_cast<std::uint64_t>(prev_) * 3 >
                    static_cast<std::uint64_t>(base_)
                ? static_cast<std::uint64_t>(prev_) * 3 -
                      static_cast<std::uint64_t>(base_)
                : 1;
        const int delay = static_cast<int>(
            std::min<std::uint64_t>(static_cast<std::uint64_t>(cap_),
                                    static_cast<std::uint64_t>(base_) +
                                        rng_.nextBelow(span)));
        prev_ = delay;
        return delay;
    }

    /** Reset to the initial delay (after a success). */
    void reset() { prev_ = base_; }

  private:
    int base_;
    int cap_;
    int prev_;
    common::Xoshiro256 rng_;
};

class Client
{
  public:
    /** Connect to the daemon at @p socket_path.
     *  @throws std::runtime_error when the connection fails,
     *          TimeoutError when the connect deadline expires. */
    explicit Client(const std::string &socket_path,
                    const ClientOptions &options = {});

    /** Send one raw line (caller includes the trailing '\n').
     *  Returns false when the peer is gone. */
    bool sendLine(const std::string &line);

    /** Send @p request as one wire line. */
    bool send(const runner::JsonValue &request);

    /**
     * Read the next reply document. std::nullopt on EOF/error;
     * @p raw (when non-null) receives the undecoded line.
     * @throws std::runtime_error when the reply is not valid JSON,
     *         TimeoutError when the io deadline expires.
     */
    std::optional<runner::JsonValue> read(std::string *raw = nullptr);

    /** One-shot request/reply convenience.
     *  @throws std::runtime_error when the daemon hangs up early. */
    runner::JsonValue request(const runner::JsonValue &request);

    /** Half-close the write side (server sees EOF after buffered
     *  bytes) while keeping the read side open. */
    void halfClose();

  private:
    Fd fd_;
    LineReader reader_;
};

} // namespace harp::harpd

#endif // HARP_HARPD_CLIENT_HH
