/**
 * @file
 * Unit tests for the simulation substrate: time helpers, the event
 * queue, RNG determinism, task lifetime, and basic process execution.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace {

using namespace siprox::sim;

TEST(SimTimeTest, UnitConversions)
{
    EXPECT_EQ(usecs(1), 1000);
    EXPECT_EQ(msecs(1), 1000000);
    EXPECT_EQ(secs(1), 1000000000);
    EXPECT_EQ(usecs(1.5), 1500);
    EXPECT_DOUBLE_EQ(toUsecs(usecs(250)), 250.0);
    EXPECT_DOUBLE_EQ(toMsecs(secs(2)), 2000.0);
    EXPECT_DOUBLE_EQ(toSecs(msecs(1500)), 1.5);
}

TEST(EventQueueTest, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    SimTime now = 0;
    while (q.runNext(now)) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(now, 30);
}

TEST(EventQueueTest, SameTimeFiresInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(42, [&order, i] { order.push_back(i); });
    SimTime now = 0;
    while (q.runNext(now)) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelledEventsAreSkipped)
{
    EventQueue q;
    int fired = 0;
    auto h1 = q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    h1.cancel();
    EXPECT_FALSE(h1.pending());
    SimTime now = 0;
    while (q.runNext(now)) {
    }
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, EventsScheduledDuringRunFire)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] {
        q.schedule(15, [&] { ++fired; });
    });
    SimTime now = 0;
    while (q.runNext(now)) {
    }
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(now, 15);
}

TEST(EventQueueTest, NextTimeReflectsHead)
{
    EventQueue q;
    EXPECT_EQ(q.nextTime(), kTimeNever);
    q.schedule(99, [] {});
    EXPECT_EQ(q.nextTime(), 99);
}

TEST(RngTest, DeterministicForSeed)
{
    Rng a(7), b(7), c(8);
    bool all_equal = true;
    bool any_diff_c = false;
    for (int i = 0; i < 100; ++i) {
        auto va = a.next();
        if (va != b.next())
            all_equal = false;
        if (va != c.next())
            any_diff_c = true;
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_c);
}

TEST(RngTest, BelowStaysInRange)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(RngTest, RangeIsInclusive)
{
    Rng r(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(2, 5);
        EXPECT_GE(v, 2);
        EXPECT_LE(v, 5);
        saw_lo |= v == 2;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = r.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// --- Task / process basics ----------------------------------------------

Task
setFlag(Process &p, bool *flag)
{
    (void)p;
    *flag = true;
    co_return;
}

TEST(ProcessTest, RootTaskRunsAtSpawnTime)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1);
    bool ran = false;
    auto &p = m.spawn("p", 0,
                      [&](Process &self) { return setFlag(self, &ran); });
    EXPECT_FALSE(ran); // runs via event, not inline
    sim.run();
    EXPECT_TRUE(ran);
    EXPECT_TRUE(p.terminated());
}

Task
burnCpu(Process &p, SimTime cost, int reps)
{
    for (int i = 0; i < reps; ++i)
        co_await p.cpu(cost, CostCenters::id("test:burn"));
}

TEST(ProcessTest, CpuAdvancesSimTime)
{
    Simulation sim;
    MachineConfig cfg;
    cfg.sched.ctxSwitchCost = 0;
    auto &m = sim.addMachine("m", 1, cfg);
    m.spawn("p", 0,
            [&](Process &self) { return burnCpu(self, usecs(10), 5); });
    sim.run();
    EXPECT_EQ(sim.now(), usecs(50));
    EXPECT_EQ(m.profiler().at("test:burn"), usecs(50));
}

TEST(ProcessTest, CpuTimeAccounted)
{
    Simulation sim;
    MachineConfig cfg;
    cfg.sched.ctxSwitchCost = 0;
    auto &m = sim.addMachine("m", 1, cfg);
    auto &p = m.spawn("p", 0, [&](Process &self) {
        return burnCpu(self, usecs(7), 3);
    });
    sim.run();
    EXPECT_EQ(p.cpuTime(), usecs(21));
}

Task
sleeper(Process &p, SimTime d)
{
    co_await p.sleepFor(d);
}

TEST(ProcessTest, SleepAdvancesTimeWithoutCpu)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1);
    auto &p = m.spawn("p", 0, [&](Process &self) {
        return sleeper(self, msecs(5));
    });
    sim.run();
    EXPECT_EQ(sim.now(), msecs(5));
    EXPECT_EQ(p.cpuTime(), 0);
    EXPECT_TRUE(p.terminated());
}

Task
failer(Process &p)
{
    co_await p.cpu(usecs(1), CostCenters::id("test:fail"));
    throw std::runtime_error("boom");
}

TEST(ProcessTest, RootExceptionPropagatesToRun)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1);
    m.spawn("p", 0, [&](Process &self) { return failer(self); });
    EXPECT_THROW(sim.run(), std::runtime_error);
}

Task
childTask(Process &p, int *order, int idx)
{
    co_await p.cpu(usecs(1), CostCenters::id("test:child"));
    order[idx] = idx + 1;
}

Task
parentTask(Process &p, int *order)
{
    co_await childTask(p, order, 0);
    co_await childTask(p, order, 1);
    order[2] = 3;
}

TEST(ProcessTest, NestedTasksRunInSequence)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1);
    int order[3] = {0, 0, 0};
    m.spawn("p", 0, [&](Process &self) {
        return parentTask(self, order);
    });
    sim.run();
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 3);
}

Task
nestedFailer(Process &p)
{
    co_await p.cpu(usecs(1), CostCenters::id("test:x"));
    throw std::logic_error("inner");
}

Task
catcher(Process &p, bool *caught)
{
    try {
        co_await nestedFailer(p);
    } catch (const std::logic_error &) {
        *caught = true;
    }
}

TEST(ProcessTest, NestedExceptionsCatchable)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1);
    bool caught = false;
    m.spawn("p", 0, [&](Process &self) {
        return catcher(self, &caught);
    });
    sim.run();
    EXPECT_TRUE(caught);
}

TEST(SimulationTest, RunUntilAdvancesClockWithoutEvents)
{
    Simulation sim;
    sim.runUntil(secs(3));
    EXPECT_EQ(sim.now(), secs(3));
}

TEST(SimulationTest, RunUntilStopsAtDeadline)
{
    Simulation sim;
    int fired = 0;
    sim.at(secs(1), [&] { ++fired; });
    sim.at(secs(5), [&] { ++fired; });
    sim.runUntil(secs(2));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), secs(2));
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, BlockedReportListsBlockedProcesses)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1);
    m.spawn("stuck", 0, [&](Process &self) -> Task {
        struct Body
        {
            static Task
            run(Process &p)
            {
                co_await p.block("waiting forever");
            }
        };
        return Body::run(self);
    });
    sim.run();
    auto report = sim.blockedReport();
    ASSERT_EQ(report.size(), 1u);
    EXPECT_NE(report[0].find("stuck"), std::string::npos);
    EXPECT_NE(report[0].find("waiting forever"), std::string::npos);
    EXPECT_TRUE(sim.hasLiveProcesses());
}

} // namespace
