/**
 * @file
 * Cancellable discrete-event queue ordered by (time, insertion sequence).
 *
 * Hot-path design (see docs/performance.md): callables live in pooled
 * slab slots with small-buffer storage, so steady-state scheduling does
 * no heap allocation — no shared_ptr control block and no std::function
 * type erasure. Handles address a slot by (index, generation); a slot's
 * generation bumps on release, so stale handles are harmless, and an
 * aliveness tag keeps cancel()/pending() safe even after the queue
 * itself is destroyed. Ordering uses one 4-ary min-heap keyed by
 * (time, seq). Cancelled entries stay in the heap until they reach the
 * top or until they outnumber the live ones: then one O(n) pass drops
 * them all, releases their slots and re-heapifies, so a run that
 * cancels most of its timers (poll timeouts) keeps the heap at most
 * twice its live size. Keys are unique, so the pop order of the live
 * events — and therefore every digest — does not depend on the heap's
 * layout or on when the dead entries leave it.
 */

#ifndef SIPROX_SIM_EVENT_QUEUE_HH
#define SIPROX_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/mem_stats.hh"
#include "sim/time.hh"

namespace siprox::sim {

class EventQueue;

/**
 * Handle to a scheduled event; allows cancellation. Cancelled events are
 * never run. Copies share the underlying event: cancelling through one
 * copy is visible to the others.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Cancel the event if it has not fired yet. */
    inline void cancel();

    /** True if the handle refers to a still-pending event. */
    inline bool pending() const;

  private:
    friend class EventQueue;

    EventHandle(std::weak_ptr<void> alive, EventQueue *q,
                std::uint32_t slot, std::uint32_t gen)
        : alive_(std::move(alive)), q_(q), slot_(slot), gen_(gen)
    {
    }

    std::weak_ptr<void> alive_;
    EventQueue *q_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * Time-ordered event queue. Events scheduled for the same instant fire
 * in insertion order, which keeps the simulation deterministic.
 */
class EventQueue
{
  public:
    /** Callables up to this size are stored inline in the slot. */
    static constexpr std::size_t kInlineSize = 64;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue()
    {
        for (auto &slab : slabs_) {
            for (std::size_t i = 0; i < kSlabSize; ++i) {
                Slot &s = slab[i];
                if (s.active)
                    s.destroy(s);
            }
        }
        mem::ledgers().eventSlab.sub(slabs_.size() * kSlabSize
                                     * sizeof(Slot));
    }

    /** Schedule @p fn at absolute simulated time @p at. */
    template <class F>
    EventHandle
    schedule(SimTime at, F &&fn)
    {
        using Fn = std::decay_t<F>;
        std::uint32_t idx = acquireSlot();
        Slot &s = slot(idx);
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(s.buf)) Fn(std::forward<F>(fn));
            s.invoke = [](Slot &sl) { (*payload<Fn>(sl))(); };
            s.destroy = [](Slot &sl) { payload<Fn>(sl)->~Fn(); };
        } else {
            Fn *p = new Fn(std::forward<F>(fn));
            ::new (static_cast<void *>(s.buf)) Fn *(p);
            s.invoke = [](Slot &sl) { (**payload<Fn *>(sl))(); };
            s.destroy = [](Slot &sl) { delete *payload<Fn *>(sl); };
        }
        s.active = true;
        s.cancelled = false;
        s.inHeap = true;
        heapPush(Entry{at, nextSeq_++, idx});
        return EventHandle(alive_, this, idx, s.gen);
    }

    bool empty() const { return heap_.empty(); }

    /** Heap entries, cancelled ones not yet dropped included. */
    std::size_t size() const { return heap_.size(); }

    /** Events popped and run so far (wall-clock perf accounting). */
    std::uint64_t popped() const { return popped_; }

    /** Time of the earliest pending (not cancelled) event; kTimeNever
     *  if none. Drops cancelled entries off the top on the way. */
    SimTime
    nextTime()
    {
        dropCancelledTop();
        return heap_.empty() ? kTimeNever : heap_.front().at;
    }

    /**
     * Pop and run the earliest non-cancelled event.
     * @param now Receives the event's timestamp.
     * @return false if the queue had no runnable events.
     */
    bool
    runNext(SimTime &now)
    {
        // Pops shrink the heap too: re-check the majority rule here,
        // while no entry is out of the heap.
        dropCancelledIfMajority();
        dropCancelledTop();
        if (heap_.empty())
            return false;
        Entry e = heapPop();
        Slot &s = slot(e.slot);
        now = e.at;
        ++popped_;
        // The slot stays live (and unavailable for reuse) while the
        // callback runs, so the callback may schedule more events;
        // slab storage never moves, so &s stays valid. Out of the heap,
        // a self-cancel marks it without counting it as a dead entry.
        s.inHeap = false;
        s.invoke(s);
        releaseSlot(e.slot);
        return true;
    }

  private:
    friend class EventHandle;

    static constexpr std::size_t kSlabSize = 256;
    /** Heaps smaller than this keep their cancelled entries until they
     *  surface: dropping them would not pay for the pass. */
    static constexpr std::size_t kDropFloor = 64;

    struct Slot
    {
        alignas(std::max_align_t) unsigned char buf[kInlineSize];
        void (*invoke)(Slot &) = nullptr;
        void (*destroy)(Slot &) = nullptr;
        std::uint32_t gen = 0;
        bool active = false;
        bool cancelled = false;
        /** Has an entry in the heap (false while its callback runs). */
        bool inHeap = false;
    };

    struct Entry
    {
        SimTime at;
        std::uint64_t seq;
        std::uint32_t slot;

        /** Strict ordering by (time, insertion seq); keys are unique,
         *  so every correct heap pops in exactly the same order. */
        bool
        before(const Entry &o) const
        {
            if (at != o.at)
                return at < o.at;
            return seq < o.seq;
        }
    };

    template <class Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineSize
            && alignof(Fn) <= alignof(std::max_align_t)
            && std::is_nothrow_move_constructible_v<Fn>;
    }

    template <class T>
    static T *
    payload(Slot &s)
    {
        return std::launder(reinterpret_cast<T *>(s.buf));
    }

    Slot &
    slot(std::uint32_t idx)
    {
        return slabs_[idx / kSlabSize][idx % kSlabSize];
    }

    const Slot &
    slot(std::uint32_t idx) const
    {
        return slabs_[idx / kSlabSize][idx % kSlabSize];
    }

    std::uint32_t
    acquireSlot()
    {
        if (free_.empty()) {
            auto base =
                static_cast<std::uint32_t>(slabs_.size() * kSlabSize);
            slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
            mem::ledgers().eventSlab.add(kSlabSize * sizeof(Slot));
            for (std::uint32_t i = 0; i < kSlabSize; ++i)
                free_.push_back(base + kSlabSize - 1 - i);
        }
        std::uint32_t idx = free_.back();
        free_.pop_back();
        return idx;
    }

    void
    releaseSlot(std::uint32_t idx)
    {
        Slot &s = slot(idx);
        s.destroy(s);
        s.invoke = nullptr;
        s.destroy = nullptr;
        s.active = false;
        ++s.gen;
        free_.push_back(idx);
    }

    void
    cancelSlot(std::uint32_t idx, std::uint32_t gen)
    {
        Slot &s = slot(idx);
        if (!s.active || s.gen != gen || s.cancelled)
            return;
        s.cancelled = true;
        if (s.inHeap) {
            ++cancelledInHeap_;
            dropCancelledIfMajority();
        }
    }

    /** Keep the heap at most twice its live size (above the floor). */
    void
    dropCancelledIfMajority()
    {
        if (cancelledInHeap_ * 2 > heap_.size()
            && heap_.size() >= kDropFloor) {
            dropCancelled();
        }
    }

    /** Pop cancelled entries off the top of the heap, releasing their
     *  slots, so the top (if any) is a live event. */
    void
    dropCancelledTop()
    {
        while (!heap_.empty() && slot(heap_.front().slot).cancelled) {
            const std::uint32_t idx = heapPop().slot;
            --cancelledInHeap_;
            releaseSlot(idx);
        }
    }

    /**
     * Drop every cancelled entry: filter the heap, re-heapify, then
     * release the dropped slots. The heap is whole again before any
     * callable is destroyed, so a destructor that cancels or schedules
     * finds a consistent queue.
     */
    void
    dropCancelled()
    {
        std::vector<std::uint32_t> dead;
        dead.reserve(cancelledInHeap_);
        std::size_t live = 0;
        for (const Entry &e : heap_) {
            if (slot(e.slot).cancelled)
                dead.push_back(e.slot);
            else
                heap_[live++] = e;
        }
        heap_.resize(live);
        // Floyd's heapify: sift every internal node, last one first.
        if (live > 1) {
            for (std::size_t i = (live - 2) / 4 + 1; i-- > 0;)
                siftDown(i, heap_[i]);
        }
        cancelledInHeap_ = 0;
        for (std::uint32_t idx : dead)
            releaseSlot(idx);
    }

    bool
    slotPending(std::uint32_t idx, std::uint32_t gen) const
    {
        const Slot &s = slot(idx);
        return s.active && s.gen == gen && !s.cancelled;
    }

    // 4-ary min-heap: half the depth of a binary heap and children on
    // one cache line, which matters at tens of millions of events/run.
    void
    heapPush(Entry e)
    {
        std::size_t i = heap_.size();
        heap_.push_back(e);
        while (i > 0) {
            std::size_t parent = (i - 1) / 4;
            if (!heap_[i].before(heap_[parent]))
                break;
            std::swap(heap_[i], heap_[parent]);
            i = parent;
        }
    }

    Entry
    heapPop()
    {
        Entry top = heap_.front();
        Entry last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(0, last);
        return top;
    }

    /** Place @p e at hole @p i, moving it down past smaller children. */
    void
    siftDown(std::size_t i, Entry e)
    {
        const std::size_t n = heap_.size();
        for (;;) {
            std::size_t first = i * 4 + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            std::size_t end = first + 4 < n ? first + 4 : n;
            for (std::size_t c = first + 1; c < end; ++c) {
                if (heap_[c].before(heap_[best]))
                    best = c;
            }
            if (!heap_[best].before(e))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = e;
    }

    std::vector<Entry> heap_;
    /** Cancelled entries still in heap_ (dropped once they are the
     *  majority). */
    std::size_t cancelledInHeap_ = 0;
    std::vector<std::unique_ptr<Slot[]>> slabs_;
    std::vector<std::uint32_t> free_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t popped_ = 0;
    // Aliveness tag for handles that outlive the queue.
    std::shared_ptr<void> alive_ = std::make_shared<char>('\0');
};

inline void
EventHandle::cancel()
{
    if (alive_.lock())
        q_->cancelSlot(slot_, gen_);
    alive_.reset();
    q_ = nullptr;
}

inline bool
EventHandle::pending() const
{
    if (!alive_.lock())
        return false;
    return q_->slotPending(slot_, gen_);
}

} // namespace siprox::sim

#endif // SIPROX_SIM_EVENT_QUEUE_HH
