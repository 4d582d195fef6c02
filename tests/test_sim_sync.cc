/**
 * @file
 * Tests for spinlocks, mutexes, semaphores, and latches, including the
 * spin-then-yield contention behaviour (scheduler churn) that drives
 * the paper's §5.2 profile observations.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

Task
mutexWorker(Process &p, SimMutex *mu, SimTime hold, int *active,
            int *max_active, int *count)
{
    co_await mu->acquire(p);
    ++*active;
    *max_active = std::max(*max_active, *active);
    co_await p.cpu(hold, CostCenters::id("test:critical"));
    --*active;
    ++*count;
    mu->release();
}

TEST(SimMutexTest, SerializesCriticalSections)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 4, noCtxConfig());
    SimMutex mu;
    int active = 0, max_active = 0, count = 0;
    for (int i = 0; i < 10; ++i) {
        m.spawn("p" + std::to_string(i), 0, [&](Process &p) {
            return mutexWorker(p, &mu, usecs(10), &active, &max_active,
                               &count);
        });
    }
    sim.run();
    EXPECT_EQ(count, 10);
    EXPECT_EQ(max_active, 1);
    // Blocked waiters consume no CPU: total time ~= serialized holds.
    EXPECT_EQ(sim.now(), usecs(100));
}

Task
semWorker(Process &p, Semaphore *sem, int *got)
{
    co_await sem->acquire(p);
    ++*got;
    co_return;
}

Task
semReleaser(Process &p, Semaphore *sem, int n)
{
    for (int i = 0; i < n; ++i) {
        co_await p.sleepFor(usecs(10));
        sem->release();
    }
}

TEST(SemaphoreTest, AcquireWaitsForRelease)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    Semaphore sem(0);
    int got = 0;
    for (int i = 0; i < 3; ++i) {
        m.spawn("w" + std::to_string(i), 0, [&](Process &p) {
            return semWorker(p, &sem, &got);
        });
    }
    m.spawn("r", 0,
            [&](Process &p) { return semReleaser(p, &sem, 3); });
    sim.runUntil(usecs(15));
    EXPECT_EQ(got, 1);
    sim.run();
    EXPECT_EQ(got, 3);
    EXPECT_EQ(sem.count(), 0);
}

TEST(SemaphoreTest, InitialCountAdmitsImmediately)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    Semaphore sem(2);
    int got = 0;
    for (int i = 0; i < 2; ++i) {
        m.spawn("w" + std::to_string(i), 0, [&](Process &p) {
            return semWorker(p, &sem, &got);
        });
    }
    sim.run();
    EXPECT_EQ(got, 2);
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
