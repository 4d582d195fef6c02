/**
 * @file
 * Bounded FIFO message channel between simulated processes, modeling a
 * Unix-domain socketpair as OpenSER uses for worker/supervisor IPC
 * (including file-descriptor passing: channel payloads may carry socket
 * handles). send() blocks while the buffer is full — the property behind
 * the §6 supervisor/worker deadlock.
 */

#ifndef SIPROX_SIM_CHANNEL_HH
#define SIPROX_SIM_CHANNEL_HH

#include <cstddef>
#include <deque>
#include <string>
#include <utility>

#include "sim/pollable.hh"
#include "sim/process.hh"
#include "sim/task.hh"

namespace siprox::sim {

/**
 * Bounded, blocking, pollable channel.
 */
template <typename T>
class Channel
{
  public:
    explicit Channel(std::size_t capacity, std::string name = "chan")
        : cap_(capacity), name_(std::move(name)), readable_(*this),
          writable_(*this)
    {
    }

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /** Blocking send; parks the sender while the buffer is full. */
    Task
    send(Process &p, T item)
    {
        while (buf_.size() >= cap_)
            co_await writable_.park(p, "chan send (full)", trace::Wait::Ipc);
        push(std::move(item));
    }

    /** Non-blocking send; false if the buffer is full. */
    bool
    trySend(T item)
    {
        if (buf_.size() >= cap_)
            return false;
        push(std::move(item));
        return true;
    }

    /** Blocking receive. */
    Task
    recv(Process &p, T &out)
    {
        while (buf_.empty())
            co_await readable_.park(p, "chan recv (empty)", trace::Wait::Ipc);
        out = std::move(buf_.front());
        pop();
    }

    /** Non-blocking receive; false if empty. */
    bool
    tryRecv(T &out)
    {
        if (buf_.empty())
            return false;
        out = std::move(buf_.front());
        pop();
        return true;
    }

    std::size_t size() const { return buf_.size(); }
    std::size_t capacity() const { return cap_; }
    bool empty() const { return buf_.empty(); }
    bool full() const { return buf_.size() >= cap_; }
    const std::string &name() const { return name_; }

    /** Pollable that is ready when a message can be received. */
    Pollable &readable() { return readable_; }

    /** Pollable that is ready when a message can be sent. */
    Pollable &writable() { return writable_; }

  private:
    /** One end: senders park on the writable end, receivers on the
     *  readable one, and each push/pop wakes one of them and every
     *  poller of that end. */
    struct Readable : Pollable
    {
        explicit Readable(Channel &c) : chan(c) {}
        bool pollReady() const override { return !chan.buf_.empty(); }
        using Pollable::notify;
        using Pollable::park;
        Channel &chan;
    };

    struct Writable : Pollable
    {
        explicit Writable(Channel &c) : chan(c) {}

        bool
        pollReady() const override
        {
            return chan.buf_.size() < chan.cap_;
        }

        using Pollable::notify;
        using Pollable::park;
        Channel &chan;
    };

    void
    push(T item)
    {
        buf_.push_back(std::move(item));
        readable_.notify();
    }

    void
    pop()
    {
        buf_.pop_front();
        writable_.notify();
    }

    std::deque<T> buf_;
    std::size_t cap_;
    std::string name_;
    Readable readable_;
    Writable writable_;
};

} // namespace siprox::sim

#endif // SIPROX_SIM_CHANNEL_HH
