#include "common/cli.hh"

namespace harp::common {

CommandLine::CommandLine(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        arg = arg.substr(2);
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)
                   != 0) {
            flags_[arg] = argv[++i];
        } else {
            flags_[arg] = "true";
        }
    }
}

bool
CommandLine::has(const std::string &name) const
{
    return flags_.count(name) > 0;
}

std::string
CommandLine::getString(const std::string &name, const std::string &def) const
{
    const auto it = flags_.find(name);
    return it == flags_.end() ? def : it->second;
}

bool
CommandLine::getBool(const std::string &name, bool def) const
{
    const auto it = flags_.find(name);
    if (it == flags_.end())
        return def;
    return it->second != "false" && it->second != "0";
}

} // namespace harp::common
