/**
 * @file
 * Tests for the Linux-2.6-style dynamic priority machinery: sleep
 * credit, run-time drain, interactivity bonus in scheduling decisions,
 * sched_yield demotion, and runqueue-wait credit — the mechanisms
 * behind the paper's §4.3 supervisor-priority observation.
 */

#include <gtest/gtest.h>

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
sleepyLoop(Process &p, int reps, SimTime sleep_time, SimTime work)
{
    for (int i = 0; i < reps; ++i) {
        co_await p.sleepFor(sleep_time);
        co_await p.cpu(work, CostCenters::id("test:work"));
    }
}

Task
burnLoop(Process &p, SimTime total, SimTime chunk)
{
    for (SimTime done = 0; done < total; done += chunk)
        co_await p.cpu(chunk, CostCenters::id("test:burn"));
}

TEST(DynPrioTest, FreshProcessHasNoBonus)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    auto &p = m.spawn("p", 0, [&](Process &self) {
        return burnLoop(self, usecs(10), usecs(10));
    });
    EXPECT_EQ(p.dynNice(), 0);
    sim.run();
}

TEST(DynPrioTest, SleeperEarnsBonusAndRunnerDrainsIt)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 2, noCtxConfig());
    auto &sleeper = m.spawn("sleeper", 0, [&](Process &self) {
        return sleepyLoop(self, 3, msecs(400), 0);
    });
    sim.run();
    // ~1.2s of sleep capped at 1s with no run time to drain it:
    // the full +5 bonus.
    EXPECT_EQ(sleeper.dynNice(), -5);
    EXPECT_GE(sleeper.sleepAvg(), msecs(900));
}

TEST(DynPrioTest, CpuBoundProcessStaysAtStaticPriority)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    auto &hog = m.spawn("hog", 0, [&](Process &self) {
        return burnLoop(self, msecs(500), msecs(10));
    });
    sim.run();
    EXPECT_EQ(hog.dynNice(), 0);
    EXPECT_EQ(hog.sleepAvg(), 0);
}

TEST(DynPrioTest, BonusIsClampedAtFiveLevels)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    auto &p = m.spawn("p", 10, [&](Process &self) {
        return sleepyLoop(self, 2, secs(2), 0);
    });
    sim.run();
    EXPECT_EQ(p.dynNice(), 5); // 10 - 5, not 10 - 20
}

TEST(DynPrioTest, StaticFloorIsMinusTwenty)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    auto &p = m.spawn("p", -18, [&](Process &self) {
        return sleepyLoop(self, 2, secs(2), usecs(1));
    });
    sim.run();
    EXPECT_EQ(p.dynNice(), -20); // clamped
}

Task
interactiveVsHog(Process &p, SimTime *latency_sum, int reps)
{
    // Sleep long enough to earn the bonus, then measure how quickly a
    // tiny burst gets scheduled while a hog occupies the core.
    co_await p.sleepFor(secs(2));
    for (int i = 0; i < reps; ++i) {
        co_await p.sleepFor(msecs(50));
        SimTime before = p.sim().now();
        co_await p.cpu(usecs(10), CostCenters::id("test:probe"));
        *latency_sum += p.sim().now() - before - usecs(10);
    }
}

TEST(DynPrioTest, InteractiveWakeupPreemptsCpuHog)
{
    Simulation sim;
    MachineConfig cfg = noCtxConfig();
    cfg.sched.quantum = msecs(100);
    auto &m = sim.addMachine("m", 1, cfg);
    m.spawn("hog", 0, [&](Process &self) {
        return burnLoop(self, secs(5), msecs(50));
    });
    SimTime latency_sum = 0;
    m.spawn("inter", 0, [&](Process &self) {
        return interactiveVsHog(self, &latency_sum, 10);
    });
    sim.run();
    // With the +bonus the sleeper preempts the equal-nice hog: near
    // zero scheduling latency instead of waiting out 100ms quanta.
    EXPECT_LT(latency_sum / 10, usecs(50));
}

Task
spinYieldLoop(Process &p, int reps)
{
    for (int i = 0; i < reps; ++i) {
        co_await p.sleepFor(msecs(300)); // keep earning bonus
        co_await p.yieldCpu();
    }
}

TEST(DynPrioTest, YieldForfeitsBonus)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    // Competitors must be *queued* (not just running) for sched_yield
    // to deschedule; with two hogs on one core, one always waits.
    for (int i = 0; i < 2; ++i) {
        m.spawn("bg" + std::to_string(i), 0, [&](Process &self) {
            return burnLoop(self, secs(30), msecs(1));
        });
    }
    auto &y = m.spawn("yielder", 0, [&](Process &self) {
        return spinYieldLoop(self, 10);
    });
    sim.run();
    // Each sleep earned 300ms of credit but the following sched_yield
    // forfeited it (2.6 expired-array semantics); only the small
    // runqueue-wait credit from the final re-dispatch remains.
    EXPECT_LT(y.sleepAvg(), msecs(150));
    EXPECT_EQ(y.dynNice(), 0);
}

TEST(DynPrioTest, RunqueueWaitCountsTowardCredit)
{
    Simulation sim;
    MachineConfig cfg = noCtxConfig();
    cfg.sched.quantum = msecs(200);
    auto &m = sim.addMachine("m", 1, cfg);
    // Two hogs; each spends ~half its time waiting on the runqueue.
    auto &a = m.spawn("a", 0, [&](Process &self) {
        return burnLoop(self, msecs(400), msecs(400));
    });
    m.spawn("b", 0, [&](Process &self) {
        return burnLoop(self, msecs(400), msecs(400));
    });
    sim.run();
    // The second-dispatched hog waited ~400ms in the queue and then
    // ran 400ms: wait credit was earned and then fully drained, while
    // the first-dispatched one never waited. Either way no residual
    // bonus survives a full drain.
    EXPECT_EQ(a.sleepAvg(), 0);
}

} // namespace
