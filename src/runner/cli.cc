#include "runner/cli.hh"

#include <algorithm>
#include <iostream>
#include <set>
#include <sstream>

#include "common/cli.hh"
#include "common/table.hh"
#include "runner/campaign.hh"
#include "runner/registry.hh"

namespace harp::runner {

namespace {

/** Flags consumed by the campaign driver itself; everything else is a
 *  tunable/axis override. */
const std::set<std::string> reservedFlags = {
    "list", "list-json", "dry-run", "seed",    "threads", "repeat",
    "out",  "label",     "all",     "help",    "schemas", "no-timings",
};

void
printUsage(std::ostream &os)
{
    os << "Usage: harp_run [experiment|label:<label>]... [options]\n"
          "\n"
          "Selection:\n"
          "  --list           list registered experiments and exit\n"
          "  --list-json      machine-readable registry (names, labels,\n"
          "                   grid sizes, per-label counts) and exit\n"
          "  --schemas        with --list, also print result schemas\n"
          "  --label L        add every experiment carrying label L\n"
          "  --all            add every registered experiment\n"
          "\n"
          "Campaign:\n"
          "  --seed N         campaign seed (default 1); every job seed\n"
          "                   derives from it deterministically\n"
          "  --threads N      worker threads sharding grid points\n"
          "                   (default 0 = hardware concurrency)\n"
          "  --repeat N       repetitions per grid point (default 1)\n"
          "  --dry-run        print the expanded jobs, run nothing\n"
          "  --out DIR        output directory (default `results`);\n"
          "                   writes <experiment>.jsonl + summary.json\n"
          "  --no-timings     deterministic summary.json only (no wall\n"
          "                   times / thread count / path prefixes) —\n"
          "                   byte-comparable against a harpd-served\n"
          "                   campaign of the same spec and seed\n"
          "\n"
          "Any other --name value collapses the sweep axis `name` to one\n"
          "value or overrides the tunable `name` of a selected\n"
          "experiment (e.g. --rounds 16 --codes 2).\n";
}

std::string
joinLabels(const std::vector<std::string> &labels)
{
    std::string out;
    for (const std::string &label : labels) {
        if (!out.empty())
            out += ",";
        out += label;
    }
    return out;
}

int
listExperiments(const Registry &registry, bool with_schemas)
{
    common::Table table({"experiment", "labels", "grid", "description"});
    for (const ExperimentSpec *spec : registry.all())
        table.addRow({spec->name, joinLabels(spec->labels),
                      std::to_string(spec->grid.numPoints()),
                      spec->description});
    table.print(std::cout);
    std::cout << "\n" << registry.size() << " experiments ("
              << registry.withLabel("bench").size() << " bench, "
              << registry.withLabel("example").size() << " example)\n";
    if (with_schemas) {
        for (const ExperimentSpec *spec : registry.all()) {
            std::cout << "\n" << spec->name << "\n";
            for (const ParamAxis &axis : spec->grid.axes()) {
                std::cout << "  axis " << axis.name << ":";
                for (const ParamValue &v : axis.values)
                    std::cout << " " << v.toString();
                std::cout << "\n";
            }
            for (const TunableSpec &t : spec->tunables)
                std::cout << "  tunable " << t.name << " (default "
                          << t.defaultValue << "): " << t.description
                          << "\n";
            std::cout << "  schema: "
                      << schemaToJson(spec->schema).dump() << "\n";
        }
    }
    return 0;
}

/**
 * Machine-readable registry dump: scripts derive expected experiment
 * counts from this instead of hard-coding them (scripts/verify.sh),
 * so adding an experiment can never silently break a count check.
 */
int
listExperimentsJson(const Registry &registry)
{
    std::cout << registryToJson(registry).dump(2) << "\n";
    return 0;
}

} // namespace

int
runnerMain(int argc, const char *const *argv)
{
    // CommandLine lets a flag consume the next token as its value;
    // rewrite the runner's boolean flags to --flag=true so they can
    // never swallow a following positional selector
    // (`harp_run --all fig06...` must not misparse).
    std::vector<std::string> args;
    args.reserve(static_cast<std::size_t>(argc));
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list" || arg == "--list-json" ||
            arg == "--schemas" || arg == "--all" ||
            arg == "--dry-run" || arg == "--help" ||
            arg == "--no-timings")
            arg += "=true";
        args.push_back(std::move(arg));
    }
    std::vector<const char *> argv_fixed;
    argv_fixed.reserve(args.size());
    for (const std::string &arg : args)
        argv_fixed.push_back(arg.c_str());
    const common::CommandLine cli(static_cast<int>(argv_fixed.size()),
                                  argv_fixed.data());
    const Registry &registry = builtinRegistry();

    if (cli.getBool("help", false)) {
        printUsage(std::cout);
        return 0;
    }
    if (cli.getBool("list", false))
        return listExperiments(registry, cli.getBool("schemas", false));
    if (cli.getBool("list-json", false))
        return listExperimentsJson(registry);

    // --- Selection ------------------------------------------------------
    std::vector<std::string> selectors = cli.positional();
    if (cli.has("label"))
        selectors.push_back("label:" + cli.getString("label", ""));
    if (cli.getBool("all", false))
        for (const ExperimentSpec *spec : registry.all())
            selectors.push_back(spec->name);
    if (selectors.empty()) {
        printUsage(std::cerr);
        return 2;
    }

    std::vector<const ExperimentSpec *> specs;
    try {
        specs = registry.select(selectors);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }

    // --- Overrides ------------------------------------------------------
    CampaignOptions options;
    try {
        options.seed = cli.getInt<std::uint64_t>("seed", 1);
        options.threads = cli.getInt<std::size_t>("threads", 0, 0, 4096);
        options.repeat =
            cli.getInt<std::size_t>("repeat", 1, 1, 1'000'000);
    } catch (const std::invalid_argument &e) {
        std::cerr << "error: " << e.what() << "\n";
        printUsage(std::cerr);
        return 2;
    }
    options.dryRun = cli.getBool("dry-run", false);
    options.noTimings = cli.getBool("no-timings", false);
    options.outDir = cli.getString("out", "results");

    for (const auto &[name, text] : cli.entries()) {
        if (reservedFlags.count(name) > 0)
            continue;
        if (!acceptsOverride(specs, name)) {
            std::ostringstream valid;
            for (const ExperimentSpec *spec : specs) {
                for (const ParamAxis &axis : spec->grid.axes())
                    valid << " --" << axis.name;
                for (const TunableSpec &t : spec->tunables)
                    valid << " --" << t.name;
            }
            std::cerr << "error: unknown flag --" << name
                      << " (not an axis or tunable of the selected "
                         "experiments; valid:"
                      << valid.str() << ")\n";
            return 2;
        }
        options.overrides[name] = text;
    }

    // --- Run ------------------------------------------------------------
    try {
        const CampaignSummary summary =
            runCampaign(specs, options, std::cout);
        if (!options.dryRun && !summary.experiments.empty()) {
            common::Table table({"experiment", "points", "repeats",
                                 "wall_s", "jobs_per_s", "result_hash"});
            for (const ExperimentRunSummary &e : summary.experiments)
                table.addRow({e.name, std::to_string(e.points),
                              std::to_string(e.repeats),
                              common::formatDouble(e.wallSeconds, 3),
                              common::formatDouble(e.jobsPerSecond, 2),
                              formatResultHash(e.resultHash)});
            std::cout << "\n";
            table.print(std::cout);
        }
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}

} // namespace harp::runner
