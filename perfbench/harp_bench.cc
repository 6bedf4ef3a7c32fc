/**
 * @file
 * harp_bench, perfbench's measuring program: runs one benchmark
 * workload against the tree's libraries (and, for the served workloads,
 * a real `harpd` process spoken to over the NDJSON wire protocol) and
 * prints the raw measurements as one JSON document on stdout. `run.py` turns them into
 * the reported metrics and checks them.
 *
 *   harp_bench --workload repro|fleet|served_sweep|served_stream|served_churn
 *              --seed N --seconds S --trace 0|1 --harpd PATH --out DIR
 *              [--smoke] [--inject-mismatch]
 *
 * One *unit* is a workload's fixed-size piece of work (the whole paper
 * reproduction, one 16-point fleet sweep, one served campaign on a
 * fresh daemon, one daemon's worth of closed-loop one-job campaigns).
 * Units repeat until --seconds have elapsed; run.py reports medians
 * over them. `harp_bench --setup-probe SELECTOR THREADS` is the child
 * process the batch set-up measurement spawns.
 *
 * --trace 1 runs one untraced unit of the workload, then a traced pass
 * over one unit of *every* workload plus the layer probes (analyzer,
 * fsync, checkpoint append), so every per-layer metric is measured in
 * every traced run. Spans live in memory and are written at exit as
 * Chrome trace-event JSON (DIR/trace-<workload>-s<seed>.json).
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/bits.hh"
#include "common/io.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/at_risk_analyzer.hh"
#include "ecc/hamming_code.hh"
#include "fault/fault_model.hh"
#include "fleet/aggregate.hh"
#include "fleet/distribution.hh"
#include "fleet/policy.hh"
#include "fleet/population.hh"
#include "harpd/checkpoint.hh"
#include "harpd/client.hh"
#include "runner/campaign.hh"
#include "runner/json.hh"
#include "runner/registry.hh"
#include "runner/session.hh"

extern char **environ;

namespace {

using namespace harp;
using runner::JsonValue;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

const Clock::time_point g_epoch = Clock::now();

double
nowSeconds()
{
    return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

/** CPU time of this process, all threads, in nanosecond resolution. */
double
selfCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** CPU time of every live thread of @p pid in nanosecond resolution:
 *  the run time in /proc/PID/task/TID/schedstat, which (unlike the
 *  tick-sampled /proc/PID/stat) resolves millisecond start-ups. */
double
threadsCpuSeconds(pid_t pid)
{
    double ns = 0.0;
    std::error_code ec;
    for (const auto &task : fs::directory_iterator(
             "/proc/" + std::to_string(pid) + "/task", ec)) {
        std::ifstream in(task.path() / "schedstat");
        double run = 0.0;
        if (in >> run)
            ns += run;
    }
    return ns * 1e-9;
}

/** What /proc says about one process (pid 0 = this process). */
struct ProcSample
{
    double cpuSeconds = 0.0;
    double hwmKb = 0.0;
    double rssKb = 0.0;
    double threads = 0.0;
};

ProcSample
readProc(pid_t pid)
{
    const std::string base =
        pid == 0 ? "/proc/self" : "/proc/" + std::to_string(pid);
    ProcSample sample;
    {
        std::ifstream in(base + "/stat");
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        const std::size_t close = text.rfind(')');
        if (close != std::string::npos) {
            std::istringstream fields(text.substr(close + 2));
            std::vector<std::string> f;
            for (std::string tok; fields >> tok;)
                f.push_back(tok);
            // After "pid (comm) ": state is field 3, utime 14, stime 15.
            if (f.size() > 12) {
                const double ticks =
                    static_cast<double>(sysconf(_SC_CLK_TCK));
                sample.cpuSeconds =
                    (std::stod(f[11]) + std::stod(f[12])) / ticks;
            }
        }
    }
    std::ifstream status(base + "/status");
    for (std::string line; std::getline(status, line);) {
        auto value = [&](const char *key) -> std::optional<double> {
            const std::size_t len = std::strlen(key);
            if (line.compare(0, len, key) != 0)
                return std::nullopt;
            return std::stod(line.substr(len));
        };
        if (auto v = value("VmHWM:"))
            sample.hwmKb = *v;
        else if (auto v = value("VmRSS:"))
            sample.rssKb = *v;
        else if (auto v = value("Threads:"))
            sample.threads = *v;
    }
    return sample;
}

// --------------------------------------------------------------------
// Spans

/** One traced interval. Times are seconds since process start. */
struct Span
{
    std::string layer;
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int id = 0;
    int parent = -1;
    int run = 0;
};

/**
 * In-memory span recorder for the bench's own (single) thread. Spans
 * nest through an explicit stack; add() records an already-measured
 * interval (e.g. a client-observed event gap) as a child of the
 * innermost open span. Disabled tracers record nothing.
 */
class Tracer
{
  public:
    bool enabled = false;
    int run = 0;

    int open(const std::string &layer, const std::string &name)
    {
        if (!enabled)
            return -1;
        spans_.push_back({layer, name, nowSeconds(), 0.0,
                          static_cast<int>(spans_.size()), top(), run});
        stack_.push_back(spans_.back().id);
        return spans_.back().id;
    }

    void close(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end = nowSeconds();
        if (!stack_.empty() && stack_.back() == id)
            stack_.pop_back();
    }

    void add(const std::string &layer, const std::string &name,
             double start, double end)
    {
        if (!enabled)
            return;
        spans_.push_back({layer, name, start, end,
                          static_cast<int>(spans_.size()), top(), run});
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time per layer: each span's duration minus its direct
     *  children's durations. */
    std::map<std::string, double> selfSeconds() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
        std::map<std::string, double> self;
        for (const Span &s : spans_)
            self[s.layer] += std::max(
                0.0, s.end - s.start - child[static_cast<std::size_t>(s.id)]);
        return self;
    }

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    void write(const std::string &path) const
    {
        JsonValue events = JsonValue::array();
        for (const Span &s : spans_) {
            JsonValue e = JsonValue::object();
            e.set("name", JsonValue(s.name));
            e.set("cat", JsonValue(s.layer));
            e.set("ph", JsonValue("X"));
            e.set("ts", JsonValue(s.start * 1e6));
            e.set("dur", JsonValue((s.end - s.start) * 1e6));
            e.set("pid", JsonValue(1));
            e.set("tid", JsonValue(1));
            JsonValue args = JsonValue::object();
            args.set("id", JsonValue(s.id));
            args.set("parent", JsonValue(s.parent));
            args.set("run", JsonValue(s.run));
            e.set("args", args);
            events.push(std::move(e));
        }
        JsonValue doc = JsonValue::object();
        doc.set("traceEvents", events);
        doc.set("displayTimeUnit", JsonValue("ms"));
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << doc.dump() << '\n';
        if (!out)
            throw std::runtime_error("cannot write " + path);
    }

  private:
    int top() const { return stack_.empty() ? -1 : stack_.back(); }

    std::vector<Span> spans_;
    std::vector<int> stack_;
};

class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &layer, const std::string &name)
        : tracer_(tracer), id_(tracer.open(layer, name))
    {
    }
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

// --------------------------------------------------------------------
// Options and result accumulation

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    bool injectMismatch = false;
    std::string harpd;
    std::string out = ".bench_out";
    std::size_t threads = 1;
};

/** Raw measurements of one workload over all its units. */
struct Samples
{
    std::vector<double> setup;
    std::vector<double> wall;
    std::vector<double> cpu;
    std::vector<double> rssMb;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;
    /** Output witness per experiment (identical across units). */
    std::map<std::string, std::string> hashes;

    void fail(const std::string &why)
    {
        ++failed;
        if (errors.size() < 20)
            errors.push_back(why);
    }
};

/** Per-layer metrics of a traced pass, by name. */
using Layers = std::map<std::string, double>;

JsonValue
numbers(const std::vector<double> &v)
{
    JsonValue a = JsonValue::array();
    for (const double x : v)
        a.push(JsonValue(x));
    return a;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/** The highest of p99/p95/p90/p75/p50 with at least ten samples
 *  beyond it (p50 when there are fewer than 20 samples). */
double
tailQuantile(const std::vector<double> &v)
{
    for (const double q : {0.99, 0.95, 0.90, 0.75})
        if (static_cast<double>(v.size()) * (1.0 - q) >= 10.0 - 1e-9)
            return quantile(v, q);
    return quantile(v, 0.5);
}

// --------------------------------------------------------------------
// Batch campaigns (runner layer)

/** Collects result lines in job order. */
class CollectSink : public runner::ResultSink
{
  public:
    void onResult(std::size_t, const std::string &line, bool) override
    {
        lines.push_back(line);
    }
    std::vector<std::string> lines;
};

struct ExperimentResult
{
    std::string name;
    std::uint64_t hash = 0;
    double wall = 0.0;
    std::vector<double> jobSeconds;
    std::vector<std::string> lines;
};

/** Run @p specs as one batch campaign through CampaignSession::run on
 *  a shared pool — the same per-spec loop runner::runCampaign drives,
 *  minus its file output — with one span per experiment. */
std::vector<ExperimentResult>
runBatch(const std::vector<const runner::ExperimentSpec *> &specs,
         const runner::SessionOptions &session_options,
         common::ThreadPool *pool, std::size_t threads, Tracer &tracer)
{
    std::vector<ExperimentResult> results;
    for (const runner::ExperimentSpec *spec : specs) {
        Scope span(tracer, "runner", spec->name);
        runner::CampaignSession session(*spec, session_options);
        CollectSink sink;
        const double start = nowSeconds();
        const runner::CampaignSession::Outcome outcome =
            session.run(pool, threads, sink);
        ExperimentResult r;
        r.name = spec->name;
        r.wall = nowSeconds() - start;
        r.hash = outcome.resultHash;
        r.jobSeconds = outcome.freshJobSeconds;
        r.lines = std::move(sink.lines);
        results.push_back(std::move(r));
    }
    return results;
}

/** perf_engine_throughput's JSONL carries timings, so its result hash
 *  changes every run; its deterministic witness is the profile
 *  checksum of each row plus the three-engine match flag. */
std::string
perfWitness(const ExperimentResult &r, Samples &samples)
{
    std::uint64_t h = common::fnv1a64Init;
    for (const std::string &line : r.lines) {
        const JsonValue row = JsonValue::parse(line);
        const JsonValue *metrics = row.find("metrics");
        const JsonValue *checksum =
            metrics ? metrics->find("profile_checksum") : nullptr;
        const JsonValue *match =
            metrics ? metrics->find("profiles_match") : nullptr;
        if (checksum == nullptr || match == nullptr || !match->asBool())
            samples.fail("perf_engine_throughput: engines disagree");
        if (checksum != nullptr)
            h = common::fnv1a64(checksum->asString() + "\n", h);
    }
    return runner::formatResultHash(h);
}

/** Record each experiment's witness; a witness that differs from the
 *  first unit's is an output mismatch. Each experiment is one
 *  attempted operation. */
void
checkWitnesses(const std::vector<ExperimentResult> &results,
               Samples &samples)
{
    for (const ExperimentResult &r : results) {
        ++samples.attempted;
        const std::string witness = r.name == "perf_engine_throughput"
                                        ? perfWitness(r, samples)
                                        : runner::formatResultHash(r.hash);
        auto [it, fresh] = samples.hashes.emplace(r.name, witness);
        if (!fresh && it->second != witness)
            samples.fail(r.name + ": result hash changed between units");
    }
}

/** The body of `--setup-probe`: registry, selection and pool, built
 *  the first time in this process as a user's first run builds them;
 *  prints the CPU seconds they took. */
int
setupProbe(const std::string &selector, std::size_t threads)
{
    const double cpu0 = selfCpuSeconds();
    const auto specs = runner::builtinRegistry().select({selector});
    common::ThreadPool pool(threads);
    const double cpu = selfCpuSeconds() - cpu0;
    if (specs.empty())
        return 1;
    std::printf("%.9f\n", cpu);
    return std::fflush(stdout) == 0 ? 0 : 1;
}

/** Batch set-up: the CPU time a fresh process of this binary spends in
 *  setupProbe. CPU time, not wall time, because on a shared VM the
 *  wall time of millisecond work follows the neighbours' load (medians
 *  moved 21-25 % between sets of runs of the same code), while the
 *  scheduler leaves hypervisor steal out of a task's run time. */
double
batchSetupSeconds(const std::string &selector, std::size_t threads)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    std::string exe = "/proc/self/exe";
    std::string flag = "--setup-probe";
    std::string sel = selector;
    std::string width = std::to_string(threads);
    char *argv[] = {exe.data(), flag.data(), sel.data(), width.data(),
                    nullptr};
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    pid_t pid = -1;
    const int rc =
        posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string text;
    char buf[64];
    for (ssize_t n; rc == 0 && (n = read(fds[0], buf, sizeof buf)) > 0;)
        text.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    if (rc == 0)
        waitpid(pid, &status, 0);
    if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        text.empty())
        throw std::runtime_error("set-up probe failed");
    return std::stod(text);
}

// --------------------------------------------------------------------
// Workload sizes

runner::SessionOptions
reproSession(const Options &o)
{
    runner::SessionOptions s;
    s.seed = o.seed;
    if (o.smoke)
        s.overrides = {{"codes", "2"}, {"words", "4"}, {"rounds", "16"},
                       {"reps", "1"}, {"trials", "16"}};
    return s;
}

std::size_t
fleetChips(const Options &o)
{
    return o.smoke ? 4000 : 125000;
}

runner::SessionOptions
fleetSession(const Options &o)
{
    runner::SessionOptions s;
    s.seed = o.seed;
    s.overrides = {{"chips", std::to_string(fleetChips(o))}};
    return s;
}

/** table01_repair_survey x repeat: many tiny jobs. */
std::size_t
streamRepeat(const Options &o)
{
    return o.smoke ? 20 : 500;
}

std::size_t
churnCampaigns(const Options &o)
{
    return o.smoke ? 30 : 250;
}

std::size_t
churnLayerSamples(const Options &o)
{
    return o.smoke ? 30 : 1000;
}

/** Closed-loop campaign i cycles through this many seeds, so the batch
 *  reference is computed once per seed. */
constexpr std::size_t kChurnSeeds = 16;

std::uint64_t
churnSeed(const Options &o, std::size_t i)
{
    return o.seed * 100 + (i % kChurnSeeds) + 1;
}

// --------------------------------------------------------------------
// harpd process + wire protocol

/** A spawned harpd with its own data dir; killed and reaped on every
 *  exit path. */
class Daemon
{
  public:
    Daemon(const Options &o, const std::string &dir) : dir_(dir)
    {
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        socket_ = dir_ + "/s.sock";
        const std::string data = dir_ + "/data";
        const std::string log = dir_ + "/harpd.log";
        const std::string threads = std::to_string(o.threads);
        std::vector<std::string> args = {o.harpd,  "--socket", socket_,
                                         "--data", data,       "--threads",
                                         threads};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        const double start = nowSeconds();
        const int rc = posix_spawn(&pid_, o.harpd.c_str(), &actions,
                                   nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0)
            throw std::runtime_error("cannot spawn " + o.harpd + ": " +
                                     std::strerror(rc));
        try {
            waitForPong(start, log);
        } catch (...) {
            // The destructor does not run for a failed constructor.
            reap();
            throw;
        }
        setupCpuSeconds_ = threadsCpuSeconds(pid_);
    }

    ~Daemon() { reap(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Ask for a graceful drain and reap the process. */
    void shutdown()
    {
        try {
            harpd::Client client(socket_);
            JsonValue req = JsonValue::object();
            req.set("verb", JsonValue("shutdown"));
            client.send(req);
            client.read();
        } catch (const std::exception &) {
        }
        const double start = nowSeconds();
        while (pid_ > 0 && nowSeconds() - start < 10.0) {
            if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    const std::string &socket() const { return socket_; }
    pid_t pid() const { return pid_; }
    /** Daemon CPU time from spawn until it answered the first ping. */
    double setupCpuSeconds() const { return setupCpuSeconds_; }

  private:
    void waitForPong(double start, const std::string &log)
    {
        while (true) {
            if (nowSeconds() - start > 20.0)
                throw std::runtime_error("harpd did not answer ping");
            if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("harpd exited at start-up (see " +
                                         log + ")");
            }
            try {
                harpd::Client client(socket_);
                JsonValue ping = JsonValue::object();
                ping.set("verb", JsonValue("ping"));
                const JsonValue reply = client.request(ping);
                const JsonValue *type = reply.find("type");
                if (type != nullptr && type->asString() == "pong")
                    return;
            } catch (const std::exception &) {
                // Not listening yet.
            }
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
    }

    void reap()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
            pid_ = -1;
        }
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }

    std::string dir_;
    std::string socket_;
    pid_t pid_ = -1;
    double setupCpuSeconds_ = 0.0;
};

/** Client-side view of one served campaign. */
struct ServedCampaign
{
    double submit = 0.0;
    double accepted = 0.0;
    double firstResult = 0.0;
    double lastResult = 0.0;
    double done = 0.0;
    std::vector<double> resultTimes;
    std::vector<std::string> lines;
    std::uint64_t rxBytes = 0;
    std::string error;
};

ServedCampaign
serveCampaign(harpd::Client &client, const std::string &id,
              const std::string &experiment,
              const runner::SessionOptions &options)
{
    JsonValue req = JsonValue::object();
    req.set("verb", JsonValue("submit"));
    req.set("campaign", JsonValue(id));
    JsonValue exps = JsonValue::array();
    exps.push(JsonValue(experiment));
    req.set("experiments", exps);
    req.set("seed", JsonValue(std::to_string(options.seed)));
    req.set("repeat", JsonValue(options.repeat));
    JsonValue overrides = JsonValue::object();
    for (const auto &[name, value] : options.overrides)
        overrides.set(name, JsonValue(value));
    req.set("overrides", overrides);

    ServedCampaign c;
    c.submit = nowSeconds();
    if (!client.send(req)) {
        c.error = "send failed";
        return c;
    }
    std::string raw;
    while (true) {
        std::optional<JsonValue> reply = client.read(&raw);
        const double t = nowSeconds();
        if (!reply) {
            c.error = "connection closed before done";
            return c;
        }
        c.rxBytes += raw.size() + 1;
        const JsonValue *type = reply->find("type");
        const std::string kind = type ? type->asString() : "";
        if (kind == "accepted") {
            c.accepted = t;
        } else if (kind == "result") {
            if (c.lines.empty())
                c.firstResult = t;
            c.lastResult = t;
            c.resultTimes.push_back(t);
            c.lines.push_back(reply->find("line")->asString());
        } else if (kind == "done") {
            c.done = t;
            return c;
        } else if (kind == "error" || kind == "degraded" ||
                   kind == "cancelled" || kind == "deadline_exceeded") {
            c.error = raw;
            return c;
        }
    }
}

/** Served bytes must equal the in-process batch bytes. */
bool
sameLines(const std::vector<std::string> &served,
          const std::vector<std::string> &batch, bool inject)
{
    if (!inject)
        return served == batch;
    std::vector<std::string> corrupted = served;
    if (!corrupted.empty() && !corrupted[0].empty())
        corrupted[0][0] ^= 1;
    return corrupted == batch;
}

// --------------------------------------------------------------------
// Units

/** One served campaign and the in-process batch run of the same
 *  campaign, whose bytes the served stream must reproduce. */
struct ServedShape
{
    std::string experiment;
    runner::SessionOptions options;
    std::vector<std::string> batchLines;
    double batchSeconds = 0.0;
};

/** Client-observed lifecycle of the closed-loop churn campaigns. */
struct ChurnStats
{
    std::vector<double> accept;
    std::vector<double> run;
    std::vector<double> finish;
    std::vector<double> total;
    std::vector<double> rssKbPerCampaign;
    double daemonThreads = 0.0;
};

struct Context
{
    Options o;
    const runner::Registry &registry = runner::builtinRegistry();
    std::unique_ptr<common::ThreadPool> pool;
    Tracer tracer;
    std::size_t daemonSerial = 0;
    /** Served campaign shapes with their batch references, by
     *  workload; computed once. */
    std::map<std::string, ServedShape> served;
    std::map<std::uint64_t, std::vector<std::string>> churnBatch;
    ChurnStats churn;

    std::string daemonDir()
    {
        return o.out + "/work/d" + std::to_string(daemonSerial++);
    }
};

void
reproUnit(Context &ctx, Samples &s, Layers *layers)
{
    const auto specs = ctx.registry.select({"label:bench"});
    const double cpu0 = selfCpuSeconds();
    const double start = nowSeconds();
    const std::vector<ExperimentResult> results =
        runBatch(specs, reproSession(ctx.o), ctx.pool.get(), ctx.o.threads,
                 ctx.tracer);
    const double wall = nowSeconds() - start;
    s.wall.push_back(wall);
    s.cpu.push_back(selfCpuSeconds() - cpu0);
    double job_sum = 0.0;
    double job_max = 0.0;
    for (const ExperimentResult &r : results) {
        for (const double j : r.jobSeconds) {
            job_sum += j;
            job_max = std::max(job_max, j);
        }
    }
    checkWitnesses(results, s);
    if (layers == nullptr)
        return;
    Layers &l = *layers;
    for (const ExperimentResult &r : results) {
        l["runner.exp_wall_s." + r.name] = r.wall;
        if (r.name != "perf_engine_throughput")
            continue;
        // The existing engine-throughput rows carry the sliced64 phase
        // split and the BCH syndrome-memo statistics.
        for (const std::string &line : r.lines) {
            const JsonValue row = JsonValue::parse(line);
            const JsonValue &m = *row.find("metrics");
            for (const char *phase : {"setup", "datapath", "observe"})
                l[std::string("core.engine.sliced64.") + phase + "_s"] +=
                    m.find(std::string("sliced64_") + phase + "_seconds")
                        ->asDouble();
            const JsonValue *rate = m.find("memo_hit_rate");
            if (rate != nullptr && rate->isNumber())
                l["ecc.bch_memo.hit_rate"] = rate->asDouble();
        }
    }
    l["runner.job_max_s"] = job_max;
    l["runner.job_sum_s"] = job_sum;
    l["runner.parallel_eff"] =
        job_sum / (static_cast<double>(ctx.o.threads) * wall);
}

void
fleetUnit(Context &ctx, Samples &s)
{
    const std::vector<const runner::ExperimentSpec *> specs = {
        ctx.registry.find("fleet_policy_sweep")};
    const double cpu0 = selfCpuSeconds();
    const double start = nowSeconds();
    const std::vector<ExperimentResult> results =
        runBatch(specs, fleetSession(ctx.o), ctx.pool.get(), ctx.o.threads,
                 ctx.tracer);
    const double wall = nowSeconds() - start;
    s.wall.push_back(wall);
    s.cpu.push_back(selfCpuSeconds() - cpu0);
    checkWitnesses(results, s);
}

/** served_sweep: the fleet workload's few large jobs, served;
 *  served_stream: table01_repair_survey x repeat, many tiny jobs. */
ServedShape &
servedShape(Context &ctx, const std::string &workload)
{
    ServedShape &shape = ctx.served[workload];
    if (!shape.experiment.empty())
        return shape;
    if (workload == "served_sweep") {
        shape.experiment = "fleet_policy_sweep";
        shape.options = fleetSession(ctx.o);
    } else {
        shape.experiment = "table01_repair_survey";
        shape.options.seed = ctx.o.seed;
        shape.options.repeat = streamRepeat(ctx.o);
    }
    Tracer off;
    const double start = nowSeconds();
    std::vector<ExperimentResult> r =
        runBatch({ctx.registry.find(shape.experiment)}, shape.options,
                 ctx.pool.get(), ctx.o.threads, off);
    shape.batchSeconds = nowSeconds() - start;
    shape.batchLines = std::move(r[0].lines);
    return shape;
}

void
servedUnit(Context &ctx, const std::string &workload, Samples &s,
           Layers *layers)
{
    const ServedShape &shape = servedShape(ctx, workload);
    Scope unit_span(ctx.tracer, "harpd", workload);
    std::optional<Daemon> daemon;
    {
        Scope span(ctx.tracer, "harpd", "spawn_to_pong");
        daemon.emplace(ctx.o, ctx.daemonDir());
    }
    const ProcSample before = readProc(daemon->pid());
    harpd::Client client(daemon->socket());
    ++s.attempted;
    ServedCampaign c;
    {
        Scope span(ctx.tracer, "harpd", "campaign");
        c = serveCampaign(client, "served", shape.experiment, shape.options);
        if (c.error.empty()) {
            ctx.tracer.add("harpd", "accept", c.submit, c.accepted);
            ctx.tracer.add("harpd", "results", c.firstResult, c.lastResult);
            ctx.tracer.add("harpd", "publish", c.lastResult, c.done);
        }
    }
    const ProcSample after = readProc(daemon->pid());
    daemon->shutdown();
    if (!c.error.empty()) {
        s.fail(workload + ": " + c.error);
        return;
    }
    if (!sameLines(c.lines, shape.batchLines, ctx.o.injectMismatch))
        s.fail(workload + ": served JSONL differs from batch");
    const double wall = c.done - c.submit;
    s.wall.push_back(wall);
    s.cpu.push_back(after.cpuSeconds - before.cpuSeconds);
    s.rssMb.push_back(after.hwmKb / 1024.0);
    if (layers == nullptr)
        return;
    Layers &l = *layers;
    if (workload == "served_sweep") {
        l["harpd.sweep_overhead_x"] = wall / shape.batchSeconds;
        return;
    }
    std::vector<double> gaps;
    for (std::size_t i = 1; i < c.resultTimes.size(); ++i)
        gaps.push_back((c.resultTimes[i] - c.resultTimes[i - 1]) * 1e3);
    l["harpd.first_result_ms"] = (c.firstResult - c.submit) * 1e3;
    l["harpd.result_gap_p50_ms"] = quantile(gaps, 0.5);
    l["harpd.result_gap_p99_ms"] = tailQuantile(gaps);
    l["harpd.result_gap.n"] = static_cast<double>(gaps.size());
    l["harpd.publish_ms"] = (c.done - c.lastResult) * 1e3;
    l["harpd.rx_bytes"] = static_cast<double>(c.rxBytes);
    l["runner.batch_s"] = shape.batchSeconds;
    l["harpd.served_overhead_x"] = wall / shape.batchSeconds;
}

void
ensureChurnBatch(Context &ctx)
{
    if (!ctx.churnBatch.empty())
        return;
    Tracer off;
    for (std::size_t i = 0; i < kChurnSeeds; ++i) {
        runner::SessionOptions options;
        options.seed = churnSeed(ctx.o, i);
        ctx.churnBatch[options.seed] =
            runBatch({ctx.registry.find("quickstart")}, options, nullptr, 1,
                     off)[0]
                .lines;
    }
}

void
churnUnit(Context &ctx, Samples &s)
{
    ensureChurnBatch(ctx);
    Scope unit_span(ctx.tracer, "harpd", "served_churn");
    std::optional<Daemon> daemon;
    {
        Scope span(ctx.tracer, "harpd", "spawn_to_pong");
        daemon.emplace(ctx.o, ctx.daemonDir());
    }
    const ProcSample before = readProc(daemon->pid());
    harpd::Client client(daemon->socket());
    const std::size_t n = churnCampaigns(ctx.o);
    // RSS growth is measured past a warm-up, so allocator and pool
    // start-up do not count as per-campaign state.
    const std::size_t warm = n / 10;
    ProcSample at_warm = before;
    ChurnStats &stats = ctx.churn;
    const double start = nowSeconds();
    for (std::size_t i = 0; i < n; ++i) {
        if (i == warm)
            at_warm = readProc(daemon->pid());
        ++s.attempted;
        const std::uint64_t seed = churnSeed(ctx.o, i);
        const int id = ctx.tracer.open("harpd", "campaign");
        runner::SessionOptions options;
        options.seed = seed;
        const ServedCampaign c = serveCampaign(
            client, "c" + std::to_string(i), "quickstart", options);
        if (!c.error.empty()) {
            ctx.tracer.close(id);
            s.fail("served_churn: " + c.error);
            continue;
        }
        ctx.tracer.add("harpd", "accept", c.submit, c.accepted);
        ctx.tracer.add("harpd", "run", c.accepted, c.lastResult);
        ctx.tracer.add("harpd", "finish", c.lastResult, c.done);
        ctx.tracer.close(id);
        ++ctx.tracer.run;
        if (!sameLines(c.lines, ctx.churnBatch[seed], ctx.o.injectMismatch))
            s.fail("served_churn: campaign c" + std::to_string(i) +
                   " differs from batch");
        stats.accept.push_back((c.accepted - c.submit) * 1e3);
        stats.run.push_back((c.lastResult - c.accepted) * 1e3);
        stats.finish.push_back((c.done - c.lastResult) * 1e3);
        stats.total.push_back((c.done - c.submit) * 1e3);
    }
    const double wall = nowSeconds() - start;
    const ProcSample after = readProc(daemon->pid());
    daemon->shutdown();
    s.wall.push_back(wall);
    s.cpu.push_back(after.cpuSeconds - before.cpuSeconds);
    s.rssMb.push_back(after.hwmKb / 1024.0);
    stats.rssKbPerCampaign.push_back((after.rssKb - at_warm.rssKb) /
                                     static_cast<double>(n - warm));
    stats.daemonThreads = after.threads;
}

/** Lifecycle metrics over every traced churn campaign. */
void
churnLayers(const ChurnStats &stats, Layers &l)
{
    l["harpd.submit_done_p50_ms"] = quantile(stats.total, 0.5);
    l["harpd.submit_done_p99_ms"] = tailQuantile(stats.total);
    l["harpd.accept_p50_ms"] = quantile(stats.accept, 0.5);
    l["harpd.accept_p99_ms"] = tailQuantile(stats.accept);
    l["harpd.run_p50_ms"] = quantile(stats.run, 0.5);
    l["harpd.finish_p50_ms"] = quantile(stats.finish, 0.5);
    l["harpd.finish_p99_ms"] = tailQuantile(stats.finish);
    for (const char *name : {"harpd.submit_done.n", "harpd.accept.n",
                             "harpd.run.n", "harpd.finish.n"})
        l[name] = static_cast<double>(stats.total.size());
    l["harpd.rss_kb_per_campaign"] = quantile(stats.rssKbPerCampaign, 0.5);
    l["harpd.daemon_threads"] = stats.daemonThreads;
}

// --------------------------------------------------------------------
// Layer probes (traced pass only)

/** AtRiskAnalyzer on Fig. 4-shaped inputs: random (71,64) SEC codes,
 *  2..8 at-risk cells at p = 0.5, all-ones data pattern. The count of
 *  feasible patterns the analyzers enumerated and their per-bit
 *  probabilities are the probe's output witness, `at_risk_probe`. */
void
analyzerProbe(Context &ctx, Layers &l, Samples &s)
{
    const std::size_t codes = ctx.o.smoke ? 1 : 4;
    const std::size_t words = ctx.o.smoke ? 2 : 20;
    double ctor = 0.0;
    double prob = 0.0;
    std::size_t subsets = 0;
    std::uint64_t witness = common::fnv1a64Init;
    for (std::size_t c = 0; c < codes; ++c) {
        common::Xoshiro256 code_rng(
            common::deriveSeed(ctx.o.seed, {0xC0DEu, c}));
        const ecc::HammingCode code =
            ecc::HammingCode::randomSec(64, code_rng);
        gf2::BitVector charged(code.k());
        charged.fill(true);
        std::vector<fault::WordFaultModel> faults;
        faults.reserve(7 * words);
        for (std::size_t m = 2; m <= 8; ++m)
            for (std::size_t w = 0; w < words; ++w) {
                common::Xoshiro256 rng(
                    common::deriveSeed(ctx.o.seed, {0xFA17u, c, m, w}));
                faults.push_back(fault::WordFaultModel::makeUniformFixedCount(
                    code.n(), m, 0.5, rng));
            }
        std::vector<std::unique_ptr<core::AtRiskAnalyzer>> analyzers;
        double t = nowSeconds();
        {
            Scope span(ctx.tracer, "core", "at_risk.ctor");
            for (const fault::WordFaultModel &f : faults)
                analyzers.push_back(
                    std::make_unique<core::AtRiskAnalyzer>(code, f));
        }
        ctor += nowSeconds() - t;
        std::vector<std::vector<double>> probs;
        t = nowSeconds();
        {
            Scope span(ctx.tracer, "core", "at_risk.prob");
            for (const auto &a : analyzers)
                probs.push_back(a->perBitErrorProbability(charged));
        }
        prob += nowSeconds() - t;
        for (std::size_t i = 0; i < analyzers.size(); ++i) {
            subsets += analyzers[i]->outcomes().size();
            std::string text =
                std::to_string(analyzers[i]->outcomes().size());
            char buf[32];
            for (const double p : probs[i]) {
                std::snprintf(buf, sizeof buf, " %.17g", p);
                text += buf;
            }
            witness = common::fnv1a64(text + "\n", witness);
        }
    }
    ++s.attempted;
    s.hashes["at_risk_probe"] = runner::formatResultHash(witness);
    l["core.at_risk.ctor_s"] = ctor;
    l["core.at_risk.prob_s"] = prob;
    l["core.at_risk.subsets"] = static_cast<double>(subsets);
    l["core.at_risk.subsets_per_s"] = static_cast<double>(subsets) / ctor;
}

std::size_t
durabilityProbes(const Options &o)
{
    // p99 needs >= 1000 samples to have ten beyond it.
    return o.smoke ? 40 : 1000;
}

/** common::io::File::sync and CheckpointWriter::add latency on the
 *  filesystem that holds harpd's data dir. */
void
durabilityProbe(Context &ctx, Layers &l, Samples &s)
{
    const std::string dir = ctx.o.out + "/work/probe";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string line =
        "{\"experiment\":\"table01_repair_survey\",\"point\":{\"mechanism\":"
        "\"row_sparing\"},\"repeat\":0,\"seed\":\"1\",\"metrics\":{}}";
    const std::size_t n = durabilityProbes(ctx.o);
    s.attempted += 2 * n;
    {
        Scope span(ctx.tracer, "common.io", "fsync_probe");
        common::io::File file;
        if (file.open(dir + "/fsync.dat", true))
            throw std::runtime_error("cannot open fsync probe file");
        std::vector<double> ms;
        for (std::size_t i = 0; i < n; ++i) {
            if (file.writeAll(line + "\n"))
                s.fail("fsync probe: write failed");
            const double t = nowSeconds();
            if (file.sync())
                s.fail("fsync probe: sync failed");
            ms.push_back((nowSeconds() - t) * 1e3);
        }
        l["common.io.fsync_p50_ms"] = quantile(ms, 0.5);
        l["common.io.fsync_p99_ms"] = tailQuantile(ms);
        l["common.io.fsync.n"] = static_cast<double>(n);
    }
    {
        Scope span(ctx.tracer, "harpd", "ckpt_add_probe");
        harpd::CheckpointHeader header;
        header.campaign = "probe";
        header.experiments = {"table01_repair_survey"};
        harpd::CheckpointWriter writer(dir + "/probe.ckpt", header);
        std::vector<double> ms;
        for (std::size_t i = 0; i < n; ++i) {
            const double t = nowSeconds();
            if (writer.add({0, i, line}))
                s.fail("checkpoint probe: add failed");
            ms.push_back((nowSeconds() - t) * 1e3);
        }
        l["harpd.ckpt_add_p50_ms"] = quantile(ms, 0.5);
        l["harpd.ckpt_add_p99_ms"] = tailQuantile(ms);
        l["harpd.ckpt_add.n"] = static_cast<double>(n);
    }
    fs::remove_all(dir);
}

/** One fleet policy point decomposed into its public stages, stage-
 *  major per stratum so each stage is one span: sample, build chip
 *  sims, profile, operate on the memory system, aggregate. The result
 *  must equal runFleet's for the same configuration. */
void
fleetProbe(Context &ctx, Layers &l, Samples &s)
{
    fleet::FleetConfig config;
    config.distribution = fleet::FleetDistribution::preset("ddr4");
    config.distribution.cellProbability = 0.5;
    config.distribution.validate();
    config.chips = fleetChips(ctx.o);
    config.seed = ctx.o.seed;
    config.threads = ctx.o.threads;
    config.policy.profiler = fleet::ProfilerKind::HarpU;

    common::Xoshiro256 probe_rng(1);
    const std::size_t n = ecc::HammingCode::randomSec(config.k, probe_rng).n();
    const fleet::PopulationSampler sampler(config.distribution,
                                           {config.wordsPerChip, n},
                                           config.deviceHours, config.seed);
    std::map<std::string, double> stage;
    auto timed = [&](const char *layer, const char *name, auto &&fn) {
        Scope span(ctx.tracer, layer, name);
        const double t = nowSeconds();
        fn();
        stage[std::string(layer) + "." + name] += nowSeconds() - t;
    };
    fleet::FleetAggregator agg;
    {
        Scope span(ctx.tracer, "fleet", "decomposed_point");
        for (std::size_t begin = 0; begin < config.chips;
             begin += config.stratumChips) {
            const std::size_t end =
                std::min(config.chips, begin + config.stratumChips);
            std::vector<fleet::ChipSample> samples;
            std::vector<fleet::ChipSim> sims;
            std::vector<fleet::ChipOutcome> outcomes;
            timed("fleet", "sample", [&] {
                for (std::size_t chip = begin; chip < end; ++chip)
                    samples.push_back(sampler.sample(chip));
            });
            timed("fleet", "chip_build", [&] {
                for (const fleet::ChipSample &sample : samples)
                    if (sample.faulty())
                        sims.push_back(fleet::makeChipSim(
                            config.seed, sample.chipIndex, config.k,
                            sampler.materialize(sample),
                            sample.events.size()));
            });
            timed("fleet", "profile", [&] {
                for (fleet::ChipSim &sim : sims)
                    fleet::profileChipScalar(sim, config.policy);
            });
            timed("memsys", "operate", [&] {
                for (fleet::ChipSim &sim : sims)
                    outcomes.push_back(fleet::runChipOperation(
                        sim, config.wordsPerChip, config.policy,
                        config.windows));
            });
            timed("fleet", "aggregate", [&] {
                for (std::size_t i = sims.size(); i < samples.size(); ++i)
                    agg.addCleanChip();
                for (const fleet::ChipOutcome &outcome : outcomes)
                    agg.addChip(outcome);
            });
        }
    }
    for (const auto &[name, seconds] : stage)
        l[name + "_s"] = seconds;
    // The simulated counts are outputs, not costs: a witness, pinned.
    s.hashes["fleet_probe"] =
        "faulty_chips=" + std::to_string(agg.faultyChips()) +
        " fault_events=" + std::to_string(agg.faultEvents()) +
        " at_risk_cells=" + std::to_string(agg.atRiskCells());
    s.attempted += 2;
    Scope span(ctx.tracer, "fleet", "run_fleet_reference");
    if (!(fleet::runFleet(config) == agg))
        s.fail("fleet probe: decomposed point differs from runFleet");
}

// --------------------------------------------------------------------
// Runs

const std::vector<std::string> kWorkloads = {
    "repro", "fleet", "served_sweep", "served_stream", "served_churn"};

void
runUnit(Context &ctx, const std::string &workload, Samples &s,
        Layers *layers)
{
    const int id = ctx.tracer.open("bench", workload);
    if (workload == "repro")
        reproUnit(ctx, s, layers);
    else if (workload == "fleet")
        fleetUnit(ctx, s);
    else if (workload == "served_churn")
        churnUnit(ctx, s);
    else
        servedUnit(ctx, workload, s, layers);
    ctx.tracer.close(id);
    ++ctx.tracer.run;
}

/** Set-up repetitions per run, before the first unit; run.py reports
 *  their median. */
constexpr int kSetups = 31;

/** Batch: fresh set-up probe processes. Served: fresh daemons, each
 *  killed once it has answered its first ping. */
std::vector<double>
setups(Context &ctx)
{
    const std::string &w = ctx.o.workload;
    std::vector<double> v;
    for (int i = 0; i < kSetups; ++i) {
        if (w == "repro" || w == "fleet")
            v.push_back(batchSetupSeconds(
                w == "repro" ? "label:bench" : "fleet_policy_sweep",
                ctx.o.threads));
        else
            v.push_back(Daemon(ctx.o, ctx.daemonDir()).setupCpuSeconds());
    }
    return v;
}

JsonValue
run(const Options &o)
{
    Context ctx;
    ctx.o = o;
    fs::create_directories(o.out + "/work");
    if (o.threads > 1)
        ctx.pool = std::make_unique<common::ThreadPool>(o.threads);
    const bool batch = o.workload == "repro" || o.workload == "fleet";

    Samples s;
    s.setup = setups(ctx);
    // Batch references of served campaigns are not timed.
    if (o.workload == "served_churn")
        ensureChurnBatch(ctx);
    else if (!batch)
        servedShape(ctx, o.workload);

    Layers layers;
    const double start = nowSeconds();
    if (!o.trace) {
        // Units stop once another one would overrun --seconds (the
        // first always runs).
        double last = 0.0;
        do {
            const double t = nowSeconds();
            runUnit(ctx, o.workload, s, nullptr);
            last = nowSeconds() - t;
        } while (nowSeconds() - start + last <= o.seconds);
    } else {
        runUnit(ctx, o.workload, s, nullptr);
        ctx.tracer.enabled = true;
        ctx.churn = ChurnStats{};
        Samples traced;
        runUnit(ctx, o.workload, traced, &layers);
        // A failed unit has no wall time; its failure is counted.
        layers["trace.overhead_pct"] =
            s.wall.empty() || traced.wall.empty()
                ? 0.0
                : (traced.wall[0] - s.wall[0]) / s.wall[0] * 100.0;
        for (const std::string &w : kWorkloads)
            if (w != o.workload)
                runUnit(ctx, w, traced, &layers);
        // Lifecycle percentiles up to p99 need >= 1000 campaigns.
        while (ctx.churn.total.size() < churnLayerSamples(o))
            runUnit(ctx, "served_churn", traced, &layers);
        churnLayers(ctx.churn, layers);
        analyzerProbe(ctx, layers, traced);
        durabilityProbe(ctx, layers, traced);
        fleetProbe(ctx, layers, traced);
        // Outputs of the traced pass are checked like any other.
        s.attempted += traced.attempted;
        s.failed += traced.failed;
        s.errors.insert(s.errors.end(), traced.errors.begin(),
                        traced.errors.end());
        for (const auto &[name, witness] : traced.hashes) {
            auto [it, fresh] = s.hashes.emplace(name, witness);
            if (!fresh && it->second != witness)
                s.fail(name + ": result hash changed between units");
        }
        for (const auto &[layer, seconds] : ctx.tracer.selfSeconds())
            layers["trace.self_s." + layer] = seconds;
        layers["trace.spans"] =
            static_cast<double>(ctx.tracer.spans().size());
        ctx.tracer.write(o.out + "/trace-" + o.workload + "-s" +
                         std::to_string(o.seed) + ".json");
    }
    if (batch)
        s.rssMb.push_back(readProc(0).hwmKb / 1024.0);

    JsonValue doc = JsonValue::object();
    doc.set("workload", JsonValue(o.workload));
    doc.set("seed", JsonValue(std::to_string(o.seed)));
    doc.set("threads", JsonValue(o.threads));
    doc.set("units", JsonValue(s.wall.size()));
    JsonValue samples = JsonValue::object();
    samples.set("setup_s", numbers(s.setup));
    samples.set("wall_s", numbers(s.wall));
    samples.set("cpu_s", numbers(s.cpu));
    samples.set("peak_rss_mb", numbers(s.rssMb));
    doc.set("samples", samples);
    doc.set("attempted", JsonValue(s.attempted));
    doc.set("failed", JsonValue(s.failed));
    JsonValue errors = JsonValue::array();
    for (const std::string &e : s.errors)
        errors.push(JsonValue(e));
    doc.set("errors", errors);
    JsonValue hashes = JsonValue::object();
    for (const auto &[name, witness] : s.hashes)
        hashes.set(name, JsonValue(witness));
    doc.set("hashes", hashes);
    JsonValue layer_doc = JsonValue::object();
    for (const auto &[name, value] : layers)
        layer_doc.set(name, JsonValue(value));
    doc.set("layers", layer_doc);
#ifdef __clang__
    doc.set("compiler", JsonValue("clang " __clang_version__));
#else
    doc.set("compiler", JsonValue("gcc " __VERSION__));
#endif
    doc.set("build_type", JsonValue(HARP_BENCH_BUILD_TYPE));
    return doc;
}

int
usage()
{
    std::cerr << "usage: harp_bench --workload "
                 "repro|fleet|served_sweep|served_stream|served_churn "
                 "--seed N "
                 "--seconds S --trace 0|1 --harpd PATH --out DIR "
                 "[--smoke] [--inject-mismatch]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 4 && std::string(argv[1]) == "--setup-probe")
        return setupProbe(argv[2], std::stoul(argv[3]));
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value)
            o.workload = argv[++i];
        else if (arg == "--seed" && has_value)
            o.seed = std::stoull(argv[++i]);
        else if (arg == "--seconds" && has_value)
            o.seconds = std::stod(argv[++i]);
        else if (arg == "--trace" && has_value)
            o.trace = std::string(argv[++i]) == "1";
        else if (arg == "--harpd" && has_value)
            o.harpd = argv[++i];
        else if (arg == "--out" && has_value)
            o.out = argv[++i];
        else if (arg == "--smoke")
            o.smoke = true;
        else if (arg == "--inject-mismatch")
            o.injectMismatch = true;
        else
            return usage();
    }
    if (std::find(kWorkloads.begin(), kWorkloads.end(), o.workload) ==
            kWorkloads.end() ||
        o.harpd.empty())
        return usage();
    // Two workers, not four: on a 4-vCPU VM whose hypervisor steals
    // 15-27 % of busy time, 4-thread sweeps spread 29-36 % in wall time
    // from run to run and 2-thread sweeps 13 %, since two idle vCPUs
    // absorb most of the contention.
    o.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(),
                                        1, 2);
    signal(SIGPIPE, SIG_IGN);
    try {
        std::cout << run(o).dump() << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "harp_bench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
