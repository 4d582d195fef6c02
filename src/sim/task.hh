/**
 * @file
 * Coroutine task type for simulated-process bodies.
 *
 * Every simulated process and every subroutine that can block in
 * simulated time is a coroutine returning Task. Awaiting a Task runs the
 * child to completion (in simulated time) and then resumes the parent via
 * symmetric transfer. Exceptions thrown inside a task propagate to the
 * awaiter; an exception escaping a process's root task is reported by the
 * Simulation run loop.
 *
 * Lifetime rule: a coroutine's *captures* are not part of its frame. Do
 * not write capturing-lambda coroutines; write named (member) functions
 * taking arguments by value and, if needed, wrap them in a capturing
 * lambda that merely *calls* the coroutine function.
 *
 * Frame rule: a coroutine's frame holds every named local of its body,
 * disjoint scopes included (GCC 12 shares no slot between them), and
 * the temporaries of every full-expression that contains a co_await,
 * all for the frame's whole life. Build messages and other large values
 * in plain functions that return what crosses a suspension (a wire
 * string, a spec passed on by pointer); the FramePool below recycles
 * frames only up to 2 KiB.
 */

#ifndef SIPROX_SIM_TASK_HH
#define SIPROX_SIM_TASK_HH

#include <array>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "sim/mem_stats.hh"

namespace siprox::sim {

namespace detail {

/**
 * Size-bucketed recycler for coroutine frames. Simulated processes
 * create and destroy frames at very high rate (every cpu()/lock/recv
 * subroutine is a coroutine); recycling them avoids a heap round trip
 * per call. Blocks are returned to the heap when the thread exits.
 */
class FramePool
{
  public:
    static void *
    alloc(std::size_t n)
    {
        std::size_t b = bucket(n);
        if (b >= kBuckets) {
            mem::ledgers().framePool.add(n);
            return ::operator new(n);
        }
        auto &fl = lists().buckets[b];
        if (!fl.empty()) {
            void *p = fl.back();
            fl.pop_back();
            return p;
        }
        mem::ledgers().framePool.add((b + 1) * kGranule);
        return ::operator new((b + 1) * kGranule);
    }

    static void
    free(void *p, std::size_t n)
    {
        std::size_t b = bucket(n);
        if (b >= kBuckets) {
            mem::ledgers().framePool.sub(n);
            ::operator delete(p);
            return;
        }
        // Recycled blocks stay retained by the pool (no sub); heap
        // return happens only at thread exit, in ~Lists, which may run
        // after this thread's ledgers — so the pool never subs there.
        lists().buckets[b].push_back(p);
    }

  private:
    static constexpr std::size_t kGranule = 64;
    static constexpr std::size_t kBuckets = 32; // frames up to 2 KiB

    static std::size_t
    bucket(std::size_t n)
    {
        return (n - 1) / kGranule;
    }

    struct Lists
    {
        std::array<std::vector<void *>, kBuckets> buckets;

        ~Lists()
        {
            for (auto &fl : buckets)
                for (void *p : fl)
                    ::operator delete(p);
        }
    };

    static Lists &
    lists()
    {
        thread_local Lists ls;
        return ls;
    }
};

} // namespace detail

/**
 * Lazily-started coroutine handle with continuation chaining.
 * Move-only; owns the coroutine frame.
 */
class [[nodiscard]] Task
{
  public:
    struct promise_type;
    using Handle = std::coroutine_handle<promise_type>;

    struct FinalAwaiter
    {
        bool await_ready() const noexcept { return false; }

        std::coroutine_handle<>
        await_suspend(Handle h) noexcept
        {
            auto &p = h.promise();
            p.done = true;
            if (p.onDone)
                p.onDone();
            if (p.continuation)
                return p.continuation;
            return std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    struct promise_type
    {
        /** Coroutine to resume when this task completes. */
        std::coroutine_handle<> continuation;
        /** Exception captured from the body, rethrown in the awaiter. */
        std::exception_ptr exception;
        /** Completion hook used by Process to observe root-task exit. */
        std::function<void()> onDone;
        bool done = false;

        Task get_return_object()
        {
            return Task(Handle::from_promise(*this));
        }

        // Frames come from the recycling pool, not the global heap.
        static void *
        operator new(std::size_t n)
        {
            return detail::FramePool::alloc(n);
        }

        static void
        operator delete(void *p, std::size_t n)
        {
            detail::FramePool::free(p, n);
        }

        std::suspend_always initial_suspend() noexcept { return {}; }
        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}

        void
        unhandled_exception()
        {
            exception = std::current_exception();
        }
    };

    Task() = default;

    explicit Task(Handle h) : handle_(h) {}

    Task(Task &&other) noexcept
        : handle_(std::exchange(other.handle_, nullptr))
    {}

    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle_ = std::exchange(other.handle_, nullptr);
        }
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task() { destroy(); }

    /** True if this task holds a live coroutine. */
    bool valid() const { return handle_ != nullptr; }

    /** True once the body has run to completion. */
    bool done() const { return !handle_ || handle_.promise().done; }

    /**
     * Start (or resume) the task without awaiting it. Used by Process
     * for root tasks; ordinary code should co_await instead.
     */
    void
    start()
    {
        if (handle_ && !handle_.done())
            handle_.resume();
    }

    /** Install a hook invoked when the task body finishes. */
    void
    setOnDone(std::function<void()> fn)
    {
        handle_.promise().onDone = std::move(fn);
    }

    /** The exception captured from the body, if any. */
    std::exception_ptr
    exceptionPtr() const
    {
        return handle_ ? handle_.promise().exception : nullptr;
    }

    /** Rethrow the task's captured exception, if any. */
    void
    rethrowIfFailed()
    {
        if (handle_ && handle_.promise().exception)
            std::rethrow_exception(handle_.promise().exception);
    }

    // Awaiter interface: co_await task starts the child and resumes the
    // parent when the child completes.
    bool await_ready() const noexcept { return !handle_ || handle_.done(); }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> parent) noexcept
    {
        handle_.promise().continuation = parent;
        return handle_;
    }

    void
    await_resume()
    {
        if (handle_ && handle_.promise().exception)
            std::rethrow_exception(handle_.promise().exception);
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    Handle handle_ = nullptr;
};

} // namespace siprox::sim

#endif // SIPROX_SIM_TASK_HH
