#include "support/files.hh"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace harp::test {

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

} // namespace harp::test
