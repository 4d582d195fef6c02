/**
 * @file
 * CPU scheduler tests: core sharing, priority preemption, round-robin
 * quantum expiry, sched_yield semantics, context-switch accounting, and
 * utilization bookkeeping — the behaviours the paper's §4.3 supervisor
 * priority result depends on.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.hh"

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
burn(Process &p, SimTime cost, SimTime *finished)
{
    co_await p.cpu(cost, CostCenters::id("test:burn"));
    *finished = p.sim().now();
}

TEST(SchedulerTest, TwoProcessesShareOneCore)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    SimTime f1 = 0, f2 = 0;
    m.spawn("a", 0,
            [&](Process &p) { return burn(p, usecs(100), &f1); });
    m.spawn("b", 0,
            [&](Process &p) { return burn(p, usecs(100), &f2); });
    sim.run();
    // Serialized on one core: total 200us, one finishes before the other.
    EXPECT_EQ(sim.now(), usecs(200));
    EXPECT_EQ(std::max(f1, f2), usecs(200));
    EXPECT_EQ(std::min(f1, f2), usecs(100));
}

TEST(SchedulerTest, TwoCoresRunInParallel)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 2, noCtxConfig());
    SimTime f1 = 0, f2 = 0;
    m.spawn("a", 0,
            [&](Process &p) { return burn(p, usecs(100), &f1); });
    m.spawn("b", 0,
            [&](Process &p) { return burn(p, usecs(100), &f2); });
    sim.run();
    EXPECT_EQ(sim.now(), usecs(100));
    EXPECT_EQ(f1, usecs(100));
    EXPECT_EQ(f2, usecs(100));
}

TEST(SchedulerTest, QuantumRoundRobinInterleaves)
{
    Simulation sim;
    MachineConfig cfg = noCtxConfig();
    cfg.sched.quantum = usecs(10);
    auto &m = sim.addMachine("m", 1, cfg);
    SimTime f1 = 0, f2 = 0;
    m.spawn("a", 0,
            [&](Process &p) { return burn(p, usecs(30), &f1); });
    m.spawn("b", 0,
            [&](Process &p) { return burn(p, usecs(30), &f2); });
    sim.run();
    // With RR at 10us quantum both finish near the end, not 30/60.
    EXPECT_EQ(sim.now(), usecs(60));
    EXPECT_GE(std::min(f1, f2), usecs(50));
}

TEST(SchedulerTest, HigherPriorityRunsFirst)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    SimTime f_lo = 0, f_hi = 0;
    // Spawn the low-priority process first; high priority must still
    // complete first because dispatch picks the best priority.
    m.spawn("lo", 5,
            [&](Process &p) { return burn(p, usecs(100), &f_lo); });
    m.spawn("hi", -5,
            [&](Process &p) { return burn(p, usecs(100), &f_hi); });
    sim.run();
    EXPECT_LT(f_hi, f_lo);
}

Task
wakeAndBurn(Process &p, SimTime sleep_first, SimTime cost,
            SimTime *finished)
{
    co_await p.sleepFor(sleep_first);
    co_await p.cpu(cost, CostCenters::id("test:burn"));
    *finished = p.sim().now();
}

TEST(SchedulerTest, PriorityWakeupPreemptsRunningProcess)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    SimTime f_bg = 0, f_hi = 0;
    m.spawn("bg", 0,
            [&](Process &p) { return burn(p, msecs(10), &f_bg); });
    // Wakes at 1ms; with preemption it finishes at ~1.1ms, well before
    // the background burst completes.
    m.spawn("hi", -20, [&](Process &p) {
        return wakeAndBurn(p, msecs(1), usecs(100), &f_hi);
    });
    sim.run();
    EXPECT_EQ(f_hi, msecs(1) + usecs(100));
    EXPECT_EQ(f_bg, msecs(10) + usecs(100));
}

TEST(SchedulerTest, NoPreemptionWhenDisabled)
{
    Simulation sim;
    MachineConfig cfg = noCtxConfig();
    cfg.sched.preemption = false;
    cfg.sched.quantum = msecs(100);
    auto &m = sim.addMachine("m", 1, cfg);
    SimTime f_bg = 0, f_hi = 0;
    m.spawn("bg", 0,
            [&](Process &p) { return burn(p, msecs(10), &f_bg); });
    m.spawn("hi", -20, [&](Process &p) {
        return wakeAndBurn(p, msecs(1), usecs(100), &f_hi);
    });
    sim.run();
    // High-priority process must wait for the burst to finish.
    EXPECT_EQ(f_hi, msecs(10) + usecs(100));
}

TEST(SchedulerTest, SamePriorityWakeupDoesNotPreempt)
{
    Simulation sim;
    MachineConfig cfg = noCtxConfig();
    cfg.sched.quantum = msecs(100);
    auto &m = sim.addMachine("m", 1, cfg);
    SimTime f_bg = 0, f_eq = 0;
    m.spawn("bg", 0,
            [&](Process &p) { return burn(p, msecs(10), &f_bg); });
    m.spawn("eq", 0, [&](Process &p) {
        return wakeAndBurn(p, msecs(1), usecs(100), &f_eq);
    });
    sim.run();
    EXPECT_EQ(f_eq, msecs(10) + usecs(100));
}

TEST(SchedulerTest, ContextSwitchChargedToKernelSchedule)
{
    Simulation sim;
    MachineConfig cfg;
    cfg.sched.ctxSwitchCost = usecs(2);
    cfg.sched.quantum = usecs(10);
    auto &m = sim.addMachine("m", 1, cfg);
    SimTime f1 = 0, f2 = 0;
    m.spawn("a", 0,
            [&](Process &p) { return burn(p, usecs(20), &f1); });
    m.spawn("b", 0,
            [&](Process &p) { return burn(p, usecs(20), &f2); });
    sim.run();
    // Four dispatch alternations of different processes => 4 switches.
    EXPECT_EQ(m.profiler().at("kernel:schedule"), usecs(8));
    EXPECT_EQ(m.profiler().at("test:burn"), usecs(40));
    EXPECT_EQ(sim.now(), usecs(48));
}

Task
yieldLoop(Process &p, int reps, std::vector<int> *order, int id)
{
    for (int i = 0; i < reps; ++i) {
        co_await p.cpu(usecs(1), CostCenters::id("test:burn"));
        order->push_back(id);
        co_await p.yieldCpu();
    }
}

TEST(SchedulerTest, YieldAlternatesEqualPriorityProcesses)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1, noCtxConfig());
    std::vector<int> order;
    m.spawn("a", 0,
            [&](Process &p) { return yieldLoop(p, 3, &order, 1); });
    m.spawn("b", 0,
            [&](Process &p) { return yieldLoop(p, 3, &order, 2); });
    sim.run();
    ASSERT_EQ(order.size(), 6u);
    // Yield forces strict alternation.
    for (std::size_t i = 2; i < order.size(); ++i)
        EXPECT_NE(order[i], order[i - 1]);
}

TEST(SchedulerTest, YieldIsNoOpWhenAlone)
{
    Simulation sim;
    MachineConfig cfg;
    cfg.sched.ctxSwitchCost = usecs(2);
    auto &m = sim.addMachine("m", 1, cfg);
    std::vector<int> order;
    m.spawn("a", 0,
            [&](Process &p) { return yieldLoop(p, 5, &order, 1); });
    sim.run();
    // One initial dispatch switch only; yields with empty queue are free.
    EXPECT_EQ(m.profiler().at("kernel:schedule"), usecs(2));
}

TEST(SchedulerTest, BusyTimeTracksUtilization)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 2, noCtxConfig());
    SimTime f = 0;
    m.spawn("a", 0,
            [&](Process &p) { return burn(p, msecs(1), &f); });
    sim.run();
    EXPECT_EQ(m.scheduler().busyTime(), msecs(1));
    // One of two cores busy for the whole run: 50%.
    EXPECT_NEAR(m.utilization(sim.now()), 0.5, 1e-9);
}

Task
manyBursts(Process &p, int reps)
{
    for (int i = 0; i < reps; ++i)
        co_await p.cpu(usecs(3), CostCenters::id("test:burn"));
}

TEST(SchedulerTest, ManyProcessesAllComplete)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 4, noCtxConfig());
    for (int i = 0; i < 40; ++i) {
        m.spawn("p" + std::to_string(i), 0,
                [&](Process &p) { return manyBursts(p, 25); });
    }
    sim.run();
    // 40 procs * 25 bursts * 3us over 4 cores = 750us.
    EXPECT_EQ(sim.now(), usecs(750));
    for (const auto &p : m.processes())
        EXPECT_TRUE(p->terminated());
}

TEST(SchedulerTest, ElevatedProcessGetsLowLatencyUnderLoad)
{
    // The §4.3 experiment in miniature: a "supervisor" that wakes for
    // short work competes with CPU-hog "workers". At nice 0 its
    // completion lags; at nice -20 each wake runs immediately.
    auto run_case = [](int nice) {
        Simulation sim;
        MachineConfig cfg;
        cfg.sched.ctxSwitchCost = 0;
        cfg.sched.quantum = msecs(5);
        auto &m = sim.addMachine("m", 1, cfg);
        static SimTime sink;
        for (int i = 0; i < 4; ++i) {
            m.spawn("w" + std::to_string(i), 0, [&](Process &p) {
                return burn(p, msecs(40), &sink);
            });
        }
        SimTime done = 0;
        m.spawn("sup", nice, [&](Process &p) {
            return wakeAndBurn(p, msecs(1), usecs(50), &done);
        });
        sim.run();
        return done;
    };

    SimTime done_normal = run_case(0);
    SimTime done_elevated = run_case(-20);
    EXPECT_EQ(done_elevated, msecs(1) + usecs(50));
    EXPECT_GT(done_normal, done_elevated * 4);
}

} // namespace
