/**
 * @file
 * Tests for spinlocks, latches and the wait protocol under every
 * blocking object (WaitQueue, Pollable, poll), including the
 * spin-then-yield contention behaviour (scheduler churn) that drives
 * the paper's §5.2 profile observations.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/pollable.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"

namespace {

using namespace siprox::sim;

MachineConfig
noCtxConfig()
{
    MachineConfig cfg;
    cfg.sched.ctxSwitchCost = 0;
    return cfg;
}

Task
lockAndHold(Process &p, SpinLock *lock, SimTime hold, int *counter)
{
    co_await lock->acquire(p);
    int v = *counter;
    co_await p.cpu(hold, CostCenters::id("test:critical"));
    *counter = v + 1; // lost update unless mutual exclusion holds
    lock->release();
}

TEST(SpinLockTest, MutualExclusionUnderContention)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 4, noCtxConfig());
    SpinLock lock("l");
    int counter = 0;
    for (int i = 0; i < 16; ++i) {
        m.spawn("p" + std::to_string(i), 0, [&](Process &p) {
            return lockAndHold(p, &lock, usecs(5), &counter);
        });
    }
    sim.run();
    EXPECT_EQ(counter, 16);
    EXPECT_FALSE(lock.held());
}

TEST(SpinLockTest, UncontendedAcquireIsFree)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    SpinLock lock("l");
    int counter = 0;
    m.spawn("p", 0, [&](Process &p) {
        return lockAndHold(p, &lock, usecs(5), &counter);
    });
    sim.run();
    EXPECT_EQ(lock.contentions(), 0u);
    EXPECT_EQ(sim.now(), usecs(5));
}

TEST(SpinLockTest, ContentionBurnsCpuInSpinAndSchedule)
{
    Simulation sim;
    MachineConfig cfg; // keep context-switch cost: yields must show up
    auto &m = sim.addMachine("m", 2, cfg);
    SpinLock lock("l");
    int counter = 0;
    for (int i = 0; i < 2; ++i) {
        m.spawn("p" + std::to_string(i), 0, [&](Process &p) {
            return lockAndHold(p, &lock, msecs(1), &counter);
        });
    }
    sim.run();
    EXPECT_EQ(counter, 2);
    EXPECT_GT(lock.contentions(), 100u);
    // The loser spun for ~1ms: spin time is charged to user:spinlock.
    EXPECT_GT(m.profiler().at("user:spinlock"), usecs(500));
}

// --- the wait protocol ------------------------------------------------

/** A pollable flag the tests set and notify directly. */
struct Flag : Pollable
{
    bool ready = false;
    bool pollReady() const override { return ready; }
    using Pollable::notify;
};

Task
parkOnce(Process &p, WaitQueue *q, int id, std::vector<int> *order)
{
    co_await q->park(p, "test");
    order->push_back(id);
}

/** Spawn @p n processes that each park once on @p q, in id order. */
void
spawnParkers(Machine &m, WaitQueue &q, int n, std::vector<int> &order)
{
    for (int i = 0; i < n; ++i) {
        m.spawn("w" + std::to_string(i), 0, [&q, &order, i](Process &p) {
            return parkOnce(p, &q, i, &order);
        });
    }
}

TEST(WaitQueueTest, ParkedProcessesWakeInFifoOrder)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    WaitQueue q;
    std::vector<int> order;
    spawnParkers(m, q, 4, order);
    for (int i = 1; i <= 4; ++i)
        sim.at(usecs(10 * i), [&q] { q.wakeOne(); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(WaitQueueTest, WakeOneWakesExactlyOneAndWakeAllTheRest)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    WaitQueue q;
    std::vector<int> order;
    spawnParkers(m, q, 4, order);
    sim.at(usecs(10), [&q] { EXPECT_TRUE(q.wakeOne()); });
    sim.runUntil(usecs(20));
    EXPECT_EQ(order, (std::vector<int>{0}));
    EXPECT_FALSE(q.empty());
    sim.at(usecs(30), [&q] { q.wakeAll(); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.wakeOne());
    EXPECT_FALSE(sim.hasLiveProcesses());
}

Task
parkTwice(Process &p, WaitQueue *q, int id, std::vector<int> *order)
{
    for (int i = 0; i < 2; ++i) {
        co_await q->park(p, "test");
        order->push_back(id);
    }
}

TEST(WaitQueueTest, WokenThenReparkedGoesToTheTail)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    WaitQueue q;
    std::vector<int> order;
    for (int i = 0; i < 2; ++i) {
        m.spawn("w" + std::to_string(i), 0, [&, i](Process &p) {
            return parkTwice(p, &q, i, &order);
        });
    }
    for (int i = 1; i <= 4; ++i)
        sim.at(usecs(10 * i), [&q] { q.wakeOne(); });
    sim.run();
    // 0 wakes first and re-parks behind 1.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1}));
    EXPECT_TRUE(q.empty());
}

/** Poll @p items once, then park on @p after until woken; records
 *  what the poll returned and whether anything woke the park. */
Task
pollThenPark(Process &p, std::vector<Pollable *> *items, SimTime timeout,
             std::vector<int> *ready, SimTime *polled_at, WaitQueue *after,
             bool *woke_after)
{
    co_await poll(p, *items, timeout, *ready);
    *polled_at = p.sim().now();
    co_await after->park(p, "after poll");
    *woke_after = true;
}

/**
 * One poller on flags a and b. At 10 us a fires, and b too if @p both;
 * the poll must return once with the ready set, leave both pollers
 * lists, and let no later notify of either disturb the poller.
 */
void
pollTwoFlags(bool both)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    Flag a, b;
    std::vector<Pollable *> items{&a, &b};
    std::vector<int> ready;
    SimTime polled_at = -1;
    WaitQueue after;
    bool woke_after = false;
    m.spawn("poller", 0, [&](Process &p) {
        return pollThenPark(p, &items, kTimeNever, &ready, &polled_at,
                            &after, &woke_after);
    });
    sim.at(usecs(10), [&] {
        a.ready = true;
        a.notify();
        // The notify popped the poller off a; b still holds it.
        EXPECT_TRUE(a.pollers().empty());
        EXPECT_FALSE(b.pollers().empty());
        if (both) {
            b.ready = true;
            b.notify();
        }
    });
    sim.runUntil(usecs(15));
    EXPECT_EQ(polled_at, usecs(10));
    const std::vector<int> want =
        both ? std::vector<int>{0, 1} : std::vector<int>{0};
    EXPECT_EQ(ready, want);
    EXPECT_TRUE(a.pollers().empty());
    EXPECT_TRUE(b.pollers().empty());
    sim.at(usecs(20), [&] {
        a.notify();
        b.notify();
    });
    sim.run();
    EXPECT_FALSE(woke_after);
    after.wakeOne();
    sim.run();
    EXPECT_TRUE(woke_after);
}

TEST(WaitQueueTest, PollerLeavesTheObjectThatDidNotFire)
{
    pollTwoFlags(false);
}

TEST(WaitQueueTest, PollerOnTwoObjectsFiringTogetherWakesOnce)
{
    pollTwoFlags(true);
}

TEST(WaitQueueTest, ParkLeavesTheQueueWhenWokenElsewhere)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    WaitQueue q;
    std::vector<int> order;
    Process &w = m.spawn("w", 0, [&](Process &p) {
        return parkOnce(p, &q, 7, &order);
    });
    sim.runUntil(usecs(5));
    EXPECT_FALSE(q.empty());
    // A timer or any other waker, not the queue's own wake.
    sim.at(usecs(10), [&w] { w.wake(); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{7}));
    EXPECT_TRUE(q.empty());
}

TEST(WaitQueueTest, TimeoutAndNotifyAtTheSameInstantWakeOnce)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    Flag f;
    std::vector<Pollable *> items{&f};
    std::vector<int> ready;
    SimTime polled_at = -1;
    WaitQueue after;
    bool woke_after = false;
    m.spawn("poller", 0, [&](Process &p) {
        return pollThenPark(p, &items, usecs(10), &ready, &polled_at,
                            &after, &woke_after);
    });
    // The poll's own timer is due at 10 us as well.
    sim.at(usecs(10), [&] {
        f.ready = true;
        f.notify();
    });
    sim.run();
    EXPECT_EQ(polled_at, usecs(10));
    EXPECT_EQ(ready, (std::vector<int>{0}));
    EXPECT_TRUE(f.pollers().empty());
    EXPECT_FALSE(woke_after);
    EXPECT_TRUE(sim.hasLiveProcesses());
}

Task
latchWaiter(Process &p, Latch *latch, SimTime *done_at)
{
    co_await latch->wait(p);
    *done_at = p.sim().now();
}

Task
latchArriver(Process &p, Latch *latch, SimTime delay)
{
    co_await p.sleepFor(delay);
    latch->arrive();
}

TEST(LatchTest, ReleasesAllWaitersAtZero)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    Latch latch(3);
    std::vector<SimTime> done(4, -1);
    for (int i = 0; i < 4; ++i) {
        m.spawn("w" + std::to_string(i), 0, [&, i](Process &p) {
            return latchWaiter(p, &latch, &done[i]);
        });
    }
    for (int i = 0; i < 3; ++i) {
        m.spawn("a" + std::to_string(i), 0, [&, i](Process &p) {
            return latchArriver(p, &latch, usecs(10 * (i + 1)));
        });
    }
    sim.run();
    for (auto t : done)
        EXPECT_EQ(t, usecs(30));
}

TEST(LatchTest, WaitAfterZeroReturnsImmediately)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    Latch latch(1);
    latch.arrive();
    SimTime done = -1;
    m.spawn("w", 0, [&](Process &p) {
        return latchWaiter(p, &latch, &done);
    });
    sim.run();
    EXPECT_EQ(done, 0);
}

} // namespace
