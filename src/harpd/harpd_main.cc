/**
 * @file
 * `harpd` — the resident campaign service.
 *
 *   harpd --socket PATH --data DIR [--threads N] [--queue N]
 *         [--max-campaigns N] [--max-jobs N] [--admission-queue N]
 *         [--tenant-weight NAME=W]... [--default-weight W]
 *         [--stall-ms N] [--fault-plan SPEC]
 *
 * Listens on an AF_UNIX socket for newline-delimited JSON requests
 * (src/harpd/protocol.hh), multiplexes submitted campaigns onto one
 * shared thread pool, checkpoints completed jobs under DIR/checkpoints
 * and publishes finished campaigns under DIR/results/<campaign>/.
 * SIGINT/SIGTERM (or a client `shutdown` verb) drain in-flight jobs and
 * exit; interrupted campaigns resume on the next start. SIGHUP writes a
 * status snapshot (DIR/status.json) without interrupting service.
 *
 * --max-campaigns/--max-jobs bound each tenant's concurrent campaigns
 * and in-flight jobs (overload is shed with `quota_exceeded` +
 * `retry_after_ms`); --admission-queue turns the hard shed into a
 * bounded FIFO park (`queued` events, promoted as quota frees).
 * --tenant-weight sets a tenant's share of the pool under contention
 * (stride-fair; repeatable), --default-weight the share of everyone
 * else. --stall-ms arms the wedged-campaign watchdog.
 * --fault-plan injects deterministic I/O faults into every durable
 * write (see common/io.hh for the spec grammar) — the chaos tier and
 * the verify.sh chaos smoke drive the daemon through ENOSPC/EIO/torn-
 * write schedules with it.
 */

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>
#include <string>

#include "common/cli.hh"
#include "common/io.hh"
#include "harpd/server.hh"

namespace {

harp::harpd::Server *g_server = nullptr;

void
handleStopSignal(int)
{
    if (g_server != nullptr)
        g_server->requestStop(); // async-signal-safe (self-pipe)
}

void
handleHangup(int)
{
    if (g_server != nullptr)
        g_server->requestStatusSnapshot(); // async-signal-safe
}

/** Install @p handler via sigaction with SA_RESTART set explicitly:
 *  the serve loop must never see spurious EINTR from a status-snapshot
 *  signal, and std::signal leaves restart semantics implementation-
 *  defined. Returns false (with errno intact) on failure. */
bool
installHandler(int signo, void (*handler)(int))
{
    struct sigaction action;
    std::memset(&action, 0, sizeof action);
    action.sa_handler = handler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    return sigaction(signo, &action, nullptr) == 0;
}

int
usage(std::ostream &out, int code)
{
    out << "usage: harpd --socket PATH --data DIR [--threads N] "
           "[--queue N]\n"
           "             [--max-campaigns N] [--max-jobs N] "
           "[--admission-queue N]\n"
           "             [--tenant-weight NAME=W]... [--default-weight "
           "W]\n"
           "             [--stall-ms N] [--fault-plan SPEC]\n"
           "  --socket PATH      AF_UNIX socket to listen on "
           "(required)\n"
           "  --data DIR         checkpoint/result root (required)\n"
           "  --threads N        shared pool width (default: hardware "
           "concurrency)\n"
           "  --queue N          per-client event queue capacity "
           "(default 256)\n"
           "  --max-campaigns N  per-tenant concurrent-campaign cap "
           "(default: unlimited)\n"
           "  --max-jobs N       per-tenant in-flight job cap "
           "(default: unlimited)\n"
           "  --admission-queue N  park up to N over-quota campaigns "
           "instead of shedding\n"
           "                     (default 0: shed immediately)\n"
           "  --tenant-weight NAME=W  fair-share weight for tenant "
           "NAME (repeatable)\n"
           "  --default-weight W  weight for tenants not named above "
           "(default 1)\n"
           "  --stall-ms N       flag campaigns stalled for N ms "
           "(default: off)\n"
           "  --fault-plan SPEC  inject I/O faults, e.g. "
           "'write#8+=ENOSPC' (testing)\n";
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    harp::harpd::ServerConfig config;
    harp::common::io::FaultPlan fault_plan;
    bool have_fault_plan = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const bool has_value = i + 1 < argc;
            // The next token as a whole decimal size_t; anything else
            // throws std::invalid_argument.
            const auto count = [&] {
                return harp::common::parseIntegerFlag<std::size_t>(
                    arg, argv[++i]);
            };
            if (arg == "--help" || arg == "-h")
                return usage(std::cout, 0);
            if (arg == "--socket" && has_value) {
                config.socketPath = argv[++i];
            } else if (arg == "--data" && has_value) {
                config.dataDir = argv[++i];
            } else if (arg == "--threads" && has_value) {
                config.threads = count();
            } else if (arg == "--queue" && has_value) {
                config.clientQueueCapacity = std::max<std::size_t>(1, count());
            } else if (arg == "--max-campaigns" && has_value) {
                config.maxCampaignsPerTenant = count();
            } else if (arg == "--max-jobs" && has_value) {
                config.maxInflightJobsPerTenant = count();
            } else if (arg == "--admission-queue" && has_value) {
                config.admissionQueueLimit = count();
            } else if (arg == "--tenant-weight" && has_value) {
                const std::string spec = argv[++i];
                const std::size_t eq = spec.find('=');
                if (eq == std::string::npos || eq == 0)
                    throw std::invalid_argument(
                        "--tenant-weight wants NAME=W, got '" + spec + "'");
                config.tenantWeights[spec.substr(0, eq)] =
                    harp::common::parseIntegerFlag<std::size_t>(
                        arg, spec.substr(eq + 1), 1);
            } else if (arg == "--default-weight" && has_value) {
                config.defaultTenantWeight =
                    std::max<std::size_t>(1, count());
            } else if (arg == "--stall-ms" && has_value) {
                config.stallTimeoutMs = count();
            } else if (arg == "--fault-plan" && has_value) {
                fault_plan = harp::common::io::FaultPlan(argv[++i]);
                have_fault_plan = true;
            } else {
                std::cerr << "harpd: unknown or incomplete flag '" << arg
                          << "'\n";
                return usage(std::cerr, 2);
            }
        }
    } catch (const std::exception &e) {
        std::cerr << "harpd: " << e.what() << "\n";
        return usage(std::cerr, 2);
    }
    if (config.socketPath.empty() || config.dataDir.empty()) {
        std::cerr << "harpd: --socket and --data are required\n";
        return usage(std::cerr, 2);
    }
    if (have_fault_plan) {
        config.ioFaultPlan = &fault_plan;
        std::cerr << "harpd: fault plan armed: "
                  << fault_plan.describe() << "\n";
    }

    try {
        harp::harpd::Server server(std::move(config));
        g_server = &server;
        if (!installHandler(SIGINT, handleStopSignal) ||
            !installHandler(SIGTERM, handleStopSignal) ||
            !installHandler(SIGHUP, handleHangup) ||
            !installHandler(SIGPIPE, SIG_IGN)) {
            std::cerr << "harpd: fatal: sigaction: "
                      << std::strerror(errno) << "\n";
            return 1;
        }
        server.start();
        if (server.resumedCampaigns() > 0)
            std::cerr << "harpd: resumed " << server.resumedCampaigns()
                      << " checkpointed campaign(s)\n";
        // The line the smoke test and the integration tier wait for.
        std::cout << "harpd: listening" << std::endl;
        server.serve();
        g_server = nullptr;
        std::cerr << "harpd: drained, exiting\n";
    } catch (const std::exception &e) {
        std::cerr << "harpd: fatal: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
