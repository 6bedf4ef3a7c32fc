/**
 * @file
 * `harpd_client` — command-line front end for a running harpd.
 *
 *   harpd_client --socket PATH ping
 *   harpd_client --socket PATH list
 *   harpd_client --socket PATH status CAMPAIGN
 *   harpd_client --socket PATH cancel CAMPAIGN
 *   harpd_client --socket PATH resume CAMPAIGN
 *   harpd_client --socket PATH shutdown
 *   harpd_client --socket PATH subscribe CAMPAIGN [--from N] [--out DIR]
 *   harpd_client --socket PATH submit CAMPAIGN EXPERIMENT...
 *                [--out DIR] [--seed N] [--repeat N]
 *                [--set NAME VALUE]... [--tenant NAME]
 *                [--priority CLASS] [--deadline-ms N]
 *
 * Shared resilience flags:
 *   --timeout-ms N   connect + per-reply deadline (default: 5000
 *                    connect, unbounded replies)
 *   --retries N      reconnect attempts after a lost connection or
 *                    timeout (default 0)
 *   --backoff-ms N   base retry delay; actual delays use exponential
 *                    backoff with decorrelated jitter (default 100)
 *
 * `submit` streams the campaign and, when --out is given, materializes
 * the streamed results exactly as a batch `harp_run --no-timings` would
 * have: one `<experiment>.jsonl` per experiment plus `summary.json`,
 * byte-identical for the same specs/seed/repeat. With --retries, a
 * connection lost mid-stream re-attaches via `subscribe from=<seq>`
 * using the per-event sequence numbers, so the mirrored output loses
 * and duplicates nothing; a submit whose connection died before the
 * daemon registered it is resubmitted idempotently (duplicate_campaign
 * downgrades to a subscribe). Quota sheds honor `retry_after_ms`.
 *
 * Forward compatibility: event types this build does not know are
 * skipped silently (the daemon may be newer), so adding stream event
 * kinds never breaks deployed clients. --verbose renders the advisory
 * kinds (`progress`, `queued`) and notes skipped unknowns on stderr.
 *
 * Exit codes: 0 done, 1 error, 2 usage, 3 cancelled, 4 degraded,
 * 5 deadline exceeded (checkpoint kept; `resume` continues it).
 */

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/cli.hh"
#include "harpd/client.hh"
#include "harpd/protocol.hh"

namespace {

namespace fs = std::filesystem;
using harp::harpd::Backoff;
using harp::harpd::Client;
using harp::harpd::ClientOptions;
using harp::harpd::TimeoutError;
using harp::runner::JsonType;
using harp::runner::JsonValue;

struct RetryOptions
{
    int retries = 0;
    int backoffBaseMs = 100;
    int timeoutMs = 0; ///< 0 = library defaults
};

int
usage(std::ostream &out, int code)
{
    out << "usage: harpd_client --socket PATH VERB [args]\n"
           "  ping | list | shutdown\n"
           "  status CAMPAIGN\n"
           "  cancel CAMPAIGN\n"
           "  resume CAMPAIGN\n"
           "  subscribe CAMPAIGN [--from N] [--out DIR]\n"
           "  submit CAMPAIGN EXPERIMENT... [--out DIR] [--seed N]\n"
           "         [--repeat N] [--set NAME VALUE]... "
           "[--tenant NAME]\n"
           "         [--priority interactive|normal|background] "
           "[--deadline-ms N]\n"
           "  resume CAMPAIGN [--deadline-ms N]\n"
           "flags: [--timeout-ms N] [--retries N] [--backoff-ms N] "
           "[--verbose]\n";
    return code;
}

int
fail(const JsonValue &reply)
{
    std::cerr << "harpd_client: error: " << reply.dump() << "\n";
    return 1;
}

ClientOptions
clientOptions(const RetryOptions &retry)
{
    ClientOptions options;
    if (retry.timeoutMs > 0) {
        options.connectTimeoutMs = retry.timeoutMs;
        options.ioTimeoutMs = retry.timeoutMs;
    }
    return options;
}

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/** Simple request/reply with reconnect-and-retry. */
JsonValue
requestWithRetries(const std::string &socket_path,
                   const RetryOptions &retry, const JsonValue &request)
{
    Backoff backoff(retry.backoffBaseMs, retry.backoffBaseMs * 64,
                    static_cast<std::uint64_t>(::getpid()));
    for (int attempt = 0;; ++attempt) {
        try {
            Client client(socket_path, clientOptions(retry));
            return client.request(request);
        } catch (const std::exception &e) {
            if (attempt >= retry.retries)
                throw;
            const int delay = backoff.nextDelayMs();
            std::cerr << "harpd_client: " << e.what() << "; retrying in "
                      << delay << "ms (" << (retry.retries - attempt)
                      << " left)\n";
            sleepMs(delay);
        }
    }
}

/** Why one attempt at consuming a campaign stream ended. */
enum class StreamEnd
{
    Done,          ///< `done` event or terminal status "done"
    Cancelled,     ///< campaign cancelled
    Failed,        ///< terminal error event / status "failed"
    Degraded,      ///< structured degraded status — resumable
    DeadlinePast,  ///< deadline_exceeded — checkpoint kept, resumable
    Lost,          ///< connection died mid-stream: re-attach
    NeedResubmit,  ///< subscribe said unknown_campaign: submit again
    NeedSubscribe, ///< submit said duplicate_campaign: re-attach
    QuotaShed,     ///< quota_exceeded: honor retry_after_ms
};

/** Mirror/stream state that must survive reconnects. */
struct StreamState
{
    std::string outDir;
    std::map<std::string, std::unique_ptr<std::ofstream>> files;
    /** Highest seq consumed; re-attach with from = lastSeq + 1. */
    std::int64_t lastSeq = -1;
    int retryAfterMs = 0;
    bool sawDegraded = false;
    bool verbose = false;

    std::ofstream *fileFor(const std::string &experiment)
    {
        auto &file = files[experiment];
        if (file == nullptr) {
            const std::string path =
                (fs::path(outDir) / (experiment + ".jsonl")).string();
            // Truncate on first open only: a re-attach continues the
            // same file (the seq cursor guarantees no duplicates).
            file = std::make_unique<std::ofstream>(
                path, std::ios::binary | std::ios::trunc);
            if (!*file) {
                std::cerr << "harpd_client: cannot write " << path
                          << "\n";
                return nullptr;
            }
        }
        return file.get();
    }
};

/** Consume stream events until a terminal condition. */
StreamEnd
consumeStream(Client &client, StreamState &state)
{
    for (;;) {
        std::optional<JsonValue> event;
        try {
            event = client.read();
        } catch (const TimeoutError &e) {
            std::cerr << "harpd_client: " << e.what() << "\n";
            return StreamEnd::Lost;
        }
        if (!event.has_value())
            return state.sawDegraded ? StreamEnd::Degraded
                                     : StreamEnd::Lost;
        const JsonValue *type = event->find("type");
        const std::string kind =
            type != nullptr && type->type() == JsonType::String
                ? type->asString()
                : "";
        if (const JsonValue *seq = event->find("seq");
            seq != nullptr && seq->type() == JsonType::Int)
            state.lastSeq = std::max(state.lastSeq, seq->asInt());

        if (kind == "accepted" || kind == "subscribed") {
            std::cerr << kind << ": " << event->dump() << "\n";
        } else if (kind == "result") {
            const JsonValue *experiment = event->find("experiment");
            const JsonValue *line = event->find("line");
            if (experiment == nullptr || line == nullptr) {
                std::cerr << "harpd_client: malformed result event\n";
                return StreamEnd::Failed;
            }
            if (state.outDir.empty()) {
                std::cout << line->asString() << "\n";
            } else {
                std::ofstream *file =
                    state.fileFor(experiment->asString());
                if (file == nullptr)
                    return StreamEnd::Failed;
                *file << line->asString() << '\n';
            }
        } else if (kind == "experiment_done") {
            std::cerr << "experiment_done: " << event->dump() << "\n";
        } else if (kind == "summary") {
            if (const JsonValue *summary = event->find("summary");
                summary != nullptr && !state.outDir.empty()) {
                const std::string path =
                    (fs::path(state.outDir) / "summary.json").string();
                std::ofstream out(path,
                                  std::ios::binary | std::ios::trunc);
                out << summary->dump(2) << '\n';
                if (!out) {
                    std::cerr << "harpd_client: cannot write " << path
                              << "\n";
                    return StreamEnd::Failed;
                }
            }
        } else if (kind == "done") {
            return StreamEnd::Done;
        } else if (kind == "progress" || kind == "queued") {
            // Advisory, never terminal; rendered only on request.
            if (state.verbose)
                std::cerr << kind << ": " << event->dump() << "\n";
        } else if (kind == "deadline_exceeded") {
            // Out-of-band terminal event: the daemon cancelled the
            // campaign at a wave boundary, keeping its checkpoint;
            // `resume` (optionally with a fresh --deadline-ms)
            // continues it without recomputing finished jobs.
            std::cerr << "deadline_exceeded: " << event->dump() << "\n";
            return StreamEnd::DeadlinePast;
        } else if (kind == "cancelled") {
            std::cerr << "cancelled: " << event->dump() << "\n";
            return StreamEnd::Cancelled;
        } else if (kind == "degraded") {
            // Out-of-band terminal event: nothing follows it on this
            // stream; the campaign keeps its checkpoint and can be
            // resumed.
            std::cerr << "degraded: " << event->dump() << "\n";
            state.sawDegraded = true;
            return StreamEnd::Degraded;
        } else if (kind == "status") {
            // Terminal snapshot closing a subscribe stream.
            const JsonValue *campaign_state = event->find("state");
            const std::string name =
                campaign_state != nullptr &&
                        campaign_state->type() == JsonType::String
                    ? campaign_state->asString()
                    : "";
            std::cerr << "status: " << event->dump() << "\n";
            if (name == "done")
                return StreamEnd::Done;
            if (name == "degraded")
                return StreamEnd::Degraded;
            if (name == "cancelled")
                return StreamEnd::Cancelled;
            if (name == "deadline_exceeded")
                return StreamEnd::DeadlinePast;
            if (name == "failed")
                return StreamEnd::Failed;
            return StreamEnd::Lost; // still running: re-attach
        } else if (kind == "error") {
            const JsonValue *code = event->find("code");
            const std::string code_name =
                code != nullptr && code->type() == JsonType::String
                    ? code->asString()
                    : "";
            if (code_name == harp::harpd::errc::unknownCampaign)
                return StreamEnd::NeedResubmit;
            if (code_name == harp::harpd::errc::duplicateCampaign)
                return StreamEnd::NeedSubscribe;
            if (code_name == harp::harpd::errc::quotaExceeded) {
                state.retryAfterMs = 0;
                if (const JsonValue *hint =
                        event->find("retry_after_ms");
                    hint != nullptr && hint->type() == JsonType::Int)
                    state.retryAfterMs =
                        static_cast<int>(hint->asInt());
                std::cerr << "shed: " << event->dump() << "\n";
                return StreamEnd::QuotaShed;
            }
            fail(*event);
            return StreamEnd::Failed;
        } else {
            // Unknown kind: a newer daemon talking. Skipping keeps old
            // clients working against new servers.
            if (state.verbose)
                std::cerr << "harpd_client: skipping unknown event: "
                          << event->dump() << "\n";
        }
    }
}

int
flushFiles(StreamState &state)
{
    for (auto &[name, file] : state.files) {
        file->flush();
        if (!*file) {
            std::cerr << "harpd_client: cannot finish writing " << name
                      << ".jsonl\n";
            return 1;
        }
    }
    return 0;
}

/**
 * Drive a campaign stream to a terminal state, reconnecting through
 * `subscribe from=` as long as retry budget remains. @p submit is the
 * original submit request, or null for a plain subscribe.
 */
int
runStream(const std::string &socket_path, const RetryOptions &retry,
          const std::string &campaign, const JsonValue *submit,
          std::int64_t subscribe_from, const std::string &out_dir,
          bool verbose)
{
    StreamState state;
    state.outDir = out_dir;
    state.lastSeq = subscribe_from - 1;
    state.verbose = verbose;
    Backoff backoff(retry.backoffBaseMs, retry.backoffBaseMs * 64,
                    static_cast<std::uint64_t>(::getpid()));
    bool subscribing = submit == nullptr;
    int attempts_left = retry.retries;
    const auto spend_retry = [&](const char *why, int delay) {
        if (attempts_left <= 0)
            return false;
        --attempts_left;
        std::cerr << "harpd_client: " << why << "; retrying in " << delay
                  << "ms (" << attempts_left + 1 << " attempt(s) were "
                  << "left)\n";
        sleepMs(delay);
        return true;
    };

    for (;;) {
        StreamEnd end;
        try {
            Client client(socket_path, clientOptions(retry));
            JsonValue request;
            if (subscribing) {
                request = JsonValue::object();
                request.set("verb", JsonValue("subscribe"));
                request.set("campaign", JsonValue(campaign));
                request.set("from",
                            JsonValue(static_cast<std::int64_t>(
                                state.lastSeq + 1)));
            } else {
                request = *submit;
            }
            if (!client.send(request)) {
                end = StreamEnd::Lost;
            } else {
                end = consumeStream(client, state);
            }
        } catch (const std::exception &e) {
            if (!spend_retry(e.what(), backoff.nextDelayMs()))
                return state.sawDegraded ? 4 : 1;
            continue;
        }

        switch (end) {
        case StreamEnd::Done:
            return flushFiles(state);
        case StreamEnd::Cancelled:
            flushFiles(state);
            return 3;
        case StreamEnd::Failed:
            flushFiles(state);
            return 1;
        case StreamEnd::Degraded:
            // Structured degradation: durable work survived on the
            // daemon; `resume CAMPAIGN` continues it once the fault
            // clears.
            flushFiles(state);
            return 4;
        case StreamEnd::DeadlinePast:
            // Not an error in the degraded sense: the work done so far
            // is durable and byte-exact; the caller decides whether to
            // resume with a fresh deadline.
            flushFiles(state);
            return 5;
        case StreamEnd::Lost:
            if (!spend_retry("connection lost mid-stream",
                             backoff.nextDelayMs())) {
                flushFiles(state);
                return 1;
            }
            // Re-attach from the cursor: the daemon either registered
            // the campaign (subscribe succeeds, no loss/duplication)
            // or never saw it (unknown_campaign → resubmit).
            subscribing = true;
            continue;
        case StreamEnd::NeedResubmit:
            if (submit == nullptr) {
                std::cerr << "harpd_client: campaign '" << campaign
                          << "' is unknown to the daemon\n";
                return 1;
            }
            subscribing = false;
            if (!spend_retry("campaign not registered, resubmitting",
                             backoff.nextDelayMs()))
                return 1;
            continue;
        case StreamEnd::NeedSubscribe:
            // The submit raced an earlier registration of the same
            // campaign (idempotent resubmit): downgrade to subscribe.
            subscribing = true;
            continue;
        case StreamEnd::QuotaShed: {
            const int delay = state.retryAfterMs > 0
                                  ? state.retryAfterMs
                                  : backoff.nextDelayMs();
            if (!spend_retry("quota exceeded", delay))
                return 1;
            continue;
        }
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    std::vector<std::string> words;
    std::string out_dir;
    JsonValue overrides = JsonValue::object();
    std::string seed;
    std::int64_t repeat = 0;
    std::string tenant;
    std::string priority;
    std::int64_t deadline_ms = 0;
    std::int64_t from = 0;
    bool verbose = false;
    RetryOptions retry;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            // The next token as a whole decimal integer in [lo, hi];
            // anything else throws std::invalid_argument.
            const auto integer = [&](auto lo, decltype(lo) hi) {
                return harp::common::parseIntegerFlag(arg, argv[++i], lo,
                                                      hi);
            };
            constexpr int int_max = std::numeric_limits<int>::max();
            constexpr std::int64_t i64_max =
                std::numeric_limits<std::int64_t>::max();
            if (arg == "--help" || arg == "-h")
                return usage(std::cout, 0);
            if (arg == "--socket" && i + 1 < argc) {
                socket_path = argv[++i];
            } else if (arg == "--out" && i + 1 < argc) {
                out_dir = argv[++i];
            } else if (arg == "--seed" && i + 1 < argc) {
                // Checked here, sent as text: the daemon takes uint64
                // seeds as decimal strings.
                seed = argv[++i];
                harp::common::parseIntegerFlag<std::uint64_t>(arg, seed);
            } else if (arg == "--repeat" && i + 1 < argc) {
                repeat = integer(std::int64_t{1}, std::int64_t{1'000'000});
            } else if (arg == "--tenant" && i + 1 < argc) {
                tenant = argv[++i];
            } else if (arg == "--priority" && i + 1 < argc) {
                priority = argv[++i];
            } else if (arg == "--deadline-ms" && i + 1 < argc) {
                deadline_ms = integer(std::int64_t{1}, i64_max);
            } else if (arg == "--verbose") {
                verbose = true;
            } else if (arg == "--from" && i + 1 < argc) {
                from = integer(std::int64_t{0}, i64_max);
            } else if (arg == "--timeout-ms" && i + 1 < argc) {
                retry.timeoutMs = integer(0, int_max);
            } else if (arg == "--retries" && i + 1 < argc) {
                retry.retries = integer(0, int_max);
            } else if (arg == "--backoff-ms" && i + 1 < argc) {
                retry.backoffBaseMs = std::max(1, integer(0, int_max));
            } else if (arg == "--set" && i + 2 < argc) {
                const std::string name = argv[++i];
                overrides.set(name, JsonValue(std::string(argv[++i])));
            } else if (!arg.empty() && arg[0] == '-') {
                std::cerr << "harpd_client: unknown or incomplete flag '"
                          << arg << "'\n";
                return usage(std::cerr, 2);
            } else {
                words.push_back(arg);
            }
        }
    } catch (const std::invalid_argument &e) {
        std::cerr << "harpd_client: " << e.what() << "\n";
        return usage(std::cerr, 2);
    }
    if (socket_path.empty() || words.empty()) {
        std::cerr << "harpd_client: --socket and a verb are required\n";
        return usage(std::cerr, 2);
    }

    const std::string verb = words[0];
    try {
        const bool named =
            verb == "status" || verb == "cancel" || verb == "resume";
        if (named || verb == "ping" || verb == "list" ||
            verb == "shutdown") {
            if (words.size() != (named ? 2u : 1u))
                return usage(std::cerr, 2);
            JsonValue request = JsonValue::object();
            request.set("verb", JsonValue(verb));
            if (named)
                request.set("campaign", JsonValue(words[1]));
            if (verb == "resume" && deadline_ms > 0)
                request.set("deadline_ms", JsonValue(deadline_ms));
            const JsonValue reply =
                requestWithRetries(socket_path, retry, request);
            const JsonValue *type = reply.find("type");
            if (type != nullptr && type->type() == JsonType::String &&
                type->asString() == "error")
                return fail(reply);
            std::cout << reply.dump(2) << "\n";
            return 0;
        }
        if (verb == "subscribe") {
            if (words.size() != 2)
                return usage(std::cerr, 2);
            if (!out_dir.empty())
                fs::create_directories(out_dir);
            return runStream(socket_path, retry, words[1],
                             /*submit=*/nullptr, from, out_dir,
                             verbose);
        }
        if (verb == "submit") {
            if (words.size() < 3)
                return usage(std::cerr, 2);
            JsonValue request = JsonValue::object();
            request.set("verb", JsonValue("submit"));
            request.set("campaign", JsonValue(words[1]));
            JsonValue experiments = JsonValue::array();
            for (std::size_t i = 2; i < words.size(); ++i)
                experiments.push(JsonValue(words[i]));
            request.set("experiments", experiments);
            if (!seed.empty())
                request.set("seed", JsonValue(seed));
            if (repeat > 0)
                request.set("repeat", JsonValue(repeat));
            if (!overrides.members().empty())
                request.set("overrides", overrides);
            if (!tenant.empty())
                request.set("tenant", JsonValue(tenant));
            if (!priority.empty())
                request.set("priority", JsonValue(priority));
            if (deadline_ms > 0)
                request.set("deadline_ms", JsonValue(deadline_ms));
            if (!out_dir.empty())
                fs::create_directories(out_dir);
            return runStream(socket_path, retry, words[1], &request,
                             /*subscribe_from=*/0, out_dir, verbose);
        }
        std::cerr << "harpd_client: unknown verb '" << verb << "'\n";
        return usage(std::cerr, 2);
    } catch (const std::exception &e) {
        std::cerr << "harpd_client: " << e.what() << "\n";
        return 1;
    }
}
