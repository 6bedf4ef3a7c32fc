/**
 * @file
 * Whole-file reads for the suites that compare bytes on disk
 * (published results against a batch run, checkpoints, snapshots).
 */

#ifndef HARP_TESTS_SUPPORT_FILES_HH
#define HARP_TESTS_SUPPORT_FILES_HH

#include <filesystem>
#include <string>

namespace harp::test {

/** The bytes of @p path; a non-fatal test failure (and "") when the
 *  file cannot be opened. */
std::string readFile(const std::filesystem::path &path);

} // namespace harp::test

#endif // HARP_TESTS_SUPPORT_FILES_HH
