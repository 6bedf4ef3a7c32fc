/**
 * @file
 * A vector whose shrinking keeps its elements for the next growth.
 *
 * The fleet replay runs chip after chip on one memory system whose
 * word count changes from chip to chip. With std::vector, shrinking to
 * a small chip destroys the tail's BitVectors and growing to a big one
 * allocates them again. RecycledVector keeps the tail constructed, so
 * storage sized by one chip serves every later chip.
 */

#ifndef HARP_COMMON_RECYCLED_VECTOR_HH
#define HARP_COMMON_RECYCLED_VECTOR_HH

#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace harp::common {

/**
 * Sequence of size() live elements. resize() below the current size
 * hides the tail instead of destroying it; a later resize() brings
 * those elements back as they were, so the caller re-initializes the
 * live elements it needs fresh.
 */
template <typename T>
class RecycledVector
{
  public:
    std::size_t size() const { return size_; }

    void resize(std::size_t n)
    {
        if (items_.size() < n)
            items_.resize(n);
        size_ = n;
    }

    /** Bounds-checked access to a live element. */
    T &at(std::size_t i)
    {
        if (i >= size_)
            throw std::out_of_range("RecycledVector::at");
        return items_[i];
    }
    const T &at(std::size_t i) const
    {
        if (i >= size_)
            throw std::out_of_range("RecycledVector::at");
        return items_[i];
    }

    T &operator[](std::size_t i)
    {
        assert(i < size_);
        return items_[i];
    }

    T *begin() { return items_.data(); }
    T *end() { return items_.data() + size_; }
    const T *begin() const { return items_.data(); }
    const T *end() const { return items_.data() + size_; }

  private:
    std::vector<T> items_;
    std::size_t size_ = 0;
};

} // namespace harp::common

#endif // HARP_COMMON_RECYCLED_VECTOR_HH
