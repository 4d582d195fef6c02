/**
 * @file
 * Edge-case tests for simulation-kernel pieces not covered elsewhere:
 * Task ownership/moves, event handles, spawn ordering, machine
 * bookkeeping, and the trace facility.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulation.hh"
#include "sim/trace.hh"

namespace {

using namespace siprox::sim;

Task
noop(Process &p)
{
    (void)p;
    co_return;
}

Task
burn(Process &p, SimTime cost)
{
    co_await p.cpu(cost, CostCenters::id("test:burn"));
}

TEST(TaskTest, DefaultIsInvalidAndDone)
{
    Task t;
    EXPECT_FALSE(t.valid());
    EXPECT_TRUE(t.done());
    EXPECT_EQ(t.exceptionPtr(), nullptr);
}

TEST(TaskTest, MoveTransfersOwnership)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1);
    m.spawn("p", 0, [&](Process &self) {
        Task a = noop(self);
        EXPECT_TRUE(a.valid());
        Task b = std::move(a);
        EXPECT_FALSE(a.valid());
        EXPECT_TRUE(b.valid());
        Task c;
        c = std::move(b);
        EXPECT_FALSE(b.valid());
        EXPECT_TRUE(c.valid());
        // c destroyed un-started: frame cleanup must be safe.
        return noop(self);
    });
    sim.run();
}

TEST(TaskTest, DestroyingUnstartedTaskIsSafe)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1);
    m.spawn("p", 0, [&](Process &self) {
        {
            Task t = burn(self, usecs(5));
            EXPECT_FALSE(t.done());
        } // dropped without ever running
        return noop(self);
    });
    sim.run();
    EXPECT_EQ(sim.now(), 0); // the dropped burn never consumed time
}

TEST(SpawnTest, ProcessesStartInSpawnOrder)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 1);
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        m.spawn("p" + std::to_string(i), 0,
                [&order, i](Process &self) -> Task {
                    struct Body
                    {
                        static Task
                        run(Process &p, std::vector<int> *order, int i)
                        {
                            (void)p;
                            order->push_back(i);
                            co_return;
                        }
                    };
                    return Body::run(self, &order, i);
                });
    }
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(MachineTest, TracksProcessesAndPids)
{
    Simulation sim;
    auto &m = sim.addMachine("box", 2);
    auto &a = m.spawn("a", 0, [&](Process &p) { return noop(p); });
    auto &b = m.spawn("b", 5, [&](Process &p) { return noop(p); });
    EXPECT_EQ(m.processes().size(), 2u);
    EXPECT_NE(a.pid(), b.pid());
    EXPECT_EQ(a.name(), "a");
    EXPECT_EQ(b.nice(), 5);
    EXPECT_EQ(&a.machine(), &m);
    sim.run();
    EXPECT_TRUE(a.terminated());
    EXPECT_TRUE(b.terminated());
}

TEST(MachineTest, UtilizationZeroBeforeWork)
{
    Simulation sim;
    auto &m = sim.addMachine("m", 4);
    EXPECT_DOUBLE_EQ(m.utilization(secs(1)), 0.0);
    EXPECT_DOUBLE_EQ(m.utilization(0), 0.0);
}

TEST(EventHandleTest, PendingLifecycle)
{
    Simulation sim;
    EventHandle h = sim.after(usecs(10), [] {});
    EXPECT_TRUE(h.pending());
    sim.run();
    EXPECT_FALSE(h.pending());
    EventHandle empty;
    EXPECT_FALSE(empty.pending());
    empty.cancel(); // no-op, must not crash
}

TEST(EventHandleTest, CancelAfterFireIsHarmless)
{
    Simulation sim;
    int fired = 0;
    EventHandle h = sim.after(usecs(10), [&] { ++fired; });
    sim.run();
    h.cancel();
    EXPECT_EQ(fired, 1);
}

TEST(TraceTest, SinkReceivesAndDisables)
{
    std::vector<std::string> lines;
    trace::setSink([&](SimTime, std::string_view cat,
                       std::string_view msg) {
        lines.push_back(std::string(cat) + "|" + std::string(msg));
    });
    EXPECT_TRUE(trace::enabled());
    trace::log(5, "cat", "hello");
    trace::setSink(nullptr);
    EXPECT_FALSE(trace::enabled());
    trace::log(6, "cat", "dropped");
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "cat|hello");
}

TEST(ProfilerTest, CostCenterInterningIsStable)
{
    auto a = CostCenters::id("test:interned");
    auto b = CostCenters::id("test:interned");
    EXPECT_EQ(a, b);
    EXPECT_EQ(CostCenters::name(a), "test:interned");
}

TEST(ProfilerTest, ReportAndSharesConsistent)
{
    Profiler prof;
    auto a = CostCenters::id("test:rep_a");
    auto b = CostCenters::id("test:rep_b");
    prof.charge(a, usecs(30));
    prof.charge(b, usecs(10));
    EXPECT_EQ(prof.total(), usecs(40));
    EXPECT_DOUBLE_EQ(prof.share("test:rep_a"), 0.75);
    EXPECT_DOUBLE_EQ(prof.share("test:missing"), 0.0);
    auto top = prof.top(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].name, "test:rep_a");
    EXPECT_NE(prof.report().find("test:rep_a"), std::string::npos);
    prof.reset();
    EXPECT_EQ(prof.total(), 0);
}

} // namespace
