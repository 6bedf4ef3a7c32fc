/**
 * @file
 * Plaintext table rendering for the benchmark binaries. Each bench prints
 * the rows/series of one paper table or figure; this keeps the formatting
 * consistent and machine-greppable (aligned text plus optional CSV).
 */

#ifndef HARP_COMMON_TABLE_HH
#define HARP_COMMON_TABLE_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace harp::common {

/**
 * Column-aligned plaintext table.
 *
 * Usage:
 * @code
 *   Table t({"profiler", "rounds", "coverage"});
 *   t.addRow({"HARP-U", "4", "1.000"});
 *   t.print(std::cout);
 * @endcode
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Append a row; must have exactly as many cells as there are headers. */
    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns and a header separator. */
    void print(std::ostream &os) const;

    std::size_t numRows() const { return rows_.size(); }
    std::size_t numCols() const { return headers_.size(); }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p digits significant decimal digits. */
std::string formatDouble(double value, int digits = 4);

} // namespace harp::common

#endif // HARP_COMMON_TABLE_HH
