/**
 * @file
 * Command-line parsing shared by the binaries: the flag table behind
 * `harp_run`, and the one checked integer parser that every numeric
 * flag of `harp_run`, `harpd` and `harpd_client` goes through.
 *
 * CommandLine supports `--name=value`, `--name value`, and boolean
 * `--name` forms. Unknown flags are collected so binaries can reject
 * typos.
 */

#ifndef HARP_COMMON_CLI_HH
#define HARP_COMMON_CLI_HH

#include <charconv>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace harp::common {

/**
 * Parse the value @p text of flag @p flag as a whole decimal integer in
 * [@p lo, @p hi]: digits with an optional leading '-' for signed @p T,
 * and nothing else. Empty text, signs, spaces, trailing characters and
 * values that overflow @p T or fall outside the range are all rejected.
 *
 * @throws std::invalid_argument naming the flag, the range and the
 *         rejected text.
 */
template <typename T>
T
parseIntegerFlag(std::string_view flag, std::string_view text,
                 T lo = std::numeric_limits<T>::min(),
                 T hi = std::numeric_limits<T>::max())
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end || value < lo ||
        value > hi)
        throw std::invalid_argument(
            std::string(flag) + " wants an integer in [" +
            std::to_string(lo) + ", " + std::to_string(hi) + "], got '" +
            std::string(text) + "'");
    return value;
}

/**
 * Parsed command line. Flags are looked up by name (without the leading
 * dashes); typed getters fall back to a caller-supplied default when the
 * flag is absent.
 */
class CommandLine
{
  public:
    CommandLine(int argc, const char *const *argv);

    bool has(const std::string &name) const;

    std::string getString(const std::string &name,
                          const std::string &def) const;

    /** Integer flag in [@p lo, @p hi] (see parseIntegerFlag), or @p def
     *  when the flag is absent. */
    template <typename T>
    T getInt(const std::string &name, T def,
             T lo = std::numeric_limits<T>::min(),
             T hi = std::numeric_limits<T>::max()) const
    {
        const auto it = flags_.find(name);
        if (it == flags_.end())
            return def;
        return parseIntegerFlag<T>("--" + name, it->second, lo, hi);
    }

    bool getBool(const std::string &name, bool def) const;

    /** Positional (non-flag) arguments in order of appearance. */
    const std::vector<std::string> &positional() const { return positional_; }

    /** All parsed name -> raw-text flag pairs (for forwarding flags to
     *  another consumer, e.g.\ campaign tunable overrides). */
    const std::map<std::string, std::string> &entries() const
    {
        return flags_;
    }

  private:
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

} // namespace harp::common

#endif // HARP_COMMON_CLI_HH
