/**
 * @file
 * FIFO queue that allocates nothing until its first push.
 *
 * libstdc++'s std::deque allocates its block map and a 512-byte node
 * on construction, so every socket, connection and phone pays ~600
 * bytes per queue even when the queue never holds anything. Fifo is a
 * power-of-two ring buffer: empty it is four words, the first push
 * allocates a few slots, and it grows by doubling. Slots are reset to
 * T() when popped, so a queued payload's resources are released at
 * pop time, as with std::deque.
 */

#ifndef SIPROX_SIM_FIFO_HH
#define SIPROX_SIM_FIFO_HH

#include <cstddef>
#include <memory>
#include <utility>

namespace siprox::sim {

template <class T>
class Fifo
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &front() { return buf_[head_]; }

    void
    push_back(T v)
    {
        if (size_ == cap_)
            grow();
        buf_[wrap(head_ + size_)] = std::move(v);
        ++size_;
    }

    void
    pop_front()
    {
        buf_[head_] = T();
        head_ = wrap(head_ + 1);
        --size_;
    }

    /** Remove the first element equal to @p v, keeping the order of
     *  the rest. Returns false if there was none. */
    bool
    remove(const T &v)
    {
        std::size_t i = 0;
        while (i < size_ && !(buf_[wrap(head_ + i)] == v))
            ++i;
        if (i == size_)
            return false;
        for (; i + 1 < size_; ++i)
            buf_[wrap(head_ + i)] = std::move(buf_[wrap(head_ + i + 1)]);
        buf_[wrap(head_ + i)] = T();
        --size_;
        return true;
    }

  private:
    static constexpr std::size_t kFirstCapacity = 4;

    std::size_t wrap(std::size_t i) const { return i & (cap_ - 1); }

    void
    grow()
    {
        const std::size_t cap = cap_ ? 2 * cap_ : kFirstCapacity;
        auto buf = std::make_unique<T[]>(cap);
        for (std::size_t i = 0; i < size_; ++i)
            buf[i] = std::move(buf_[wrap(head_ + i)]);
        buf_ = std::move(buf);
        cap_ = cap;
        head_ = 0;
    }

    std::unique_ptr<T[]> buf_;
    std::size_t cap_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace siprox::sim

#endif // SIPROX_SIM_FIFO_HH
