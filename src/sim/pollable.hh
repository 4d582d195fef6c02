/**
 * @file
 * The one wait queue under every blocking object, the readiness
 * interface built on it, and an epoll/select-style wait. Sockets and
 * channels implement Pollable; event loops wait on several at once.
 */

#ifndef SIPROX_SIM_POLLABLE_HH
#define SIPROX_SIM_POLLABLE_HH

#include <coroutine>
#include <vector>

#include "sim/fifo.hh"
#include "sim/process.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace siprox::sim {

/**
 * FIFO of processes waiting on one condition. Waking only schedules
 * the resume (Process::wake), so a waker never runs a waiter inline.
 */
class WaitQueue
{
  public:
    /**
     * Awaitable that blocks a process at the tail of the queue and
     * takes it off the queue on resume, whoever woke it (a notify, a
     * timer, a spurious wake). Callers re-check their condition in a
     * loop (Mesa semantics).
     */
    struct Park
    {
        WaitQueue &queue;
        Process::BlockAwait block;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            queue.add(&block.proc);
            block.await_suspend(h);
        }

        void await_resume() { queue.remove(&block.proc); }
    };

    /** Block @p p until woken; @p reason and @p cls label the wait
     *  as Process::block does. */
    Park
    park(Process &p, const char *reason,
         trace::Wait cls = trace::Wait::Sleep)
    {
        return Park{*this, p.block(reason, cls)};
    }

    bool empty() const { return procs_.empty(); }

    /** Register @p p without blocking it (poll registration). */
    void add(Process *p) { procs_.push_back(p); }

    /** Deregister @p p; a no-op if it was already woken off. */
    void remove(Process *p) { procs_.remove(p); }

    /** Wake the longest waiter. Returns false if there was none. */
    bool
    wakeOne()
    {
        if (procs_.empty())
            return false;
        Process *p = procs_.front();
        procs_.pop_front();
        p->wake();
        return true;
    }

    /** Wake every waiter, in FIFO order, leaving the queue empty. */
    void
    wakeAll()
    {
        while (wakeOne()) {
        }
    }

  private:
    Fifo<Process *> procs_;
};

/**
 * Something a process can block on or poll. Implementations call
 * notify() whenever pollReady() may have become true.
 *
 * Two queues, as in a Linux socket's wait queue: processes blocked in
 * the object's own call (recvfrom, accept, a channel send/recv) wait
 * exclusively and wake one per notify, while pollers all wake.
 */
class Pollable
{
  public:
    virtual ~Pollable() = default;

    /** True if a wait on this object would not block. */
    virtual bool pollReady() const = 0;

    /** How many blocked waiters a notify() wakes. */
    enum class Wake
    {
        None,
        One,
        All,
    };

    /** Processes polling on this object (registered by poll()). */
    WaitQueue &pollers() { return pollers_; }

  protected:
    /** Block @p p in this object's own call until a notify picks it. */
    WaitQueue::Park
    park(Process &p, const char *reason, trace::Wait cls)
    {
        return blocked_.park(p, reason, cls);
    }

    /**
     * Wake @p blocked blocked waiters, then every poller. Returns
     * whether any blocked waiter was woken.
     */
    bool
    notify(Wake blocked = Wake::One)
    {
        bool woke = false;
        if (blocked == Wake::One) {
            woke = blocked_.wakeOne();
        } else if (blocked == Wake::All) {
            woke = !blocked_.empty();
            blocked_.wakeAll();
        }
        pollers_.wakeAll();
        return woke;
    }

  private:
    WaitQueue blocked_;
    WaitQueue pollers_;
};

/**
 * Wait until at least one of @p items is ready or @p timeout elapses,
 * collecting the indices of *every* ready item (epoll_wait semantics:
 * one wakeup reports the whole ready set, so an event loop can service
 * a batch per scheduling round).
 *
 * @param self The polling process.
 * @param items Objects to wait on (the vector and the pointers must
 *        stay valid until the poll returns; passing by reference keeps
 *        this hot call allocation-free).
 * @param timeout Relative timeout; kTimeNever blocks indefinitely; 0
 *        makes the poll non-blocking.
 * @param ready Cleared, then filled with ready indices in item order;
 *        left empty on timeout. The caller must revalidate each entry
 *        as it services the set — handling one item can retire
 *        another (e.g. closing a connection that was also ready).
 */
Task poll(Process &self, const std::vector<Pollable *> &items,
          SimTime timeout, std::vector<int> &ready);

} // namespace siprox::sim

#endif // SIPROX_SIM_POLLABLE_HH
