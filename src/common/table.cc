#include "common/table.hh"

#include <cassert>
#include <cstdio>
#include <iomanip>

namespace harp::common {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    assert(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
}

void
Table::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "| " : " | ")
               << std::left << std::setw(static_cast<int>(widths[c]))
               << row[c];
        }
        os << " |\n";
    };

    print_row(headers_);
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        os << (c == 0 ? "|-" : "-|-") << std::string(widths[c], '-');
    }
    os << "-|\n";
    for (const auto &row : rows_)
        print_row(row);
}

std::string
formatDouble(double value, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    return buf;
}

} // namespace harp::common
