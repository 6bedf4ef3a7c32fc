/**
 * @file
 * Command-line front end of `harp_run`.
 */

#ifndef HARP_RUNNER_CLI_HH
#define HARP_RUNNER_CLI_HH

namespace harp::runner {

/**
 * Entry point behind `harp_run`.
 *
 * Grammar:
 *   harp_run --list
 *   harp_run [selectors...] [--label L] [--all] [--dry-run]
 *            [--seed N] [--threads N] [--repeat N] [--out DIR]
 *            [--<tunable> value]...
 *
 * Selectors are experiment names or `label:<label>`. Any other flag
 * must name a sweep axis (collapsing it to one value) or a declared
 * tunable of a selected experiment.
 *
 * @return 0 on success, 1 on a runtime failure, 2 on a usage error.
 */
int runnerMain(int argc, const char *const *argv);

} // namespace harp::runner

#endif // HARP_RUNNER_CLI_HH
