/**
 * @file
 * Unit tests for the simulation substrate: time helpers, the event
 * queue, RNG determinism, task lifetime, and basic process execution.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
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

/**
 * Seeded random mix of schedule, cancel and run — including schedules
 * and cancels issued from inside running callbacks — checked against a
 * reference ordered set of the live (time, seq) keys.
 */
class EventQueueModel
{
  public:
    explicit EventQueueModel(std::uint64_t seed) : rng_(seed) {}

    /**
     * One driver step. A growing step mostly schedules, a shrinking
     * one mostly cancels, so the heap repeatedly fills up and then
     * drops its dead entries.
     */
    void
    step(bool growing)
    {
        const std::uint64_t roll = rng_.below(10);
        if (roll < (growing ? 6u : 1u))
            schedule(now_ + static_cast<SimTime>(rng_.below(1000)));
        else if (roll < 8)
            cancelRandom();
        else
            runOne();
        checkBound();
    }

    /** Run the earliest event; false once the queue has run dry. */
    bool
    runOne()
    {
        const SimTime expected =
            live_.empty() ? kTimeNever : live_.begin()->first;
        EXPECT_EQ(q_.nextTime(), expected);
        if (!q_.runNext(now_)) {
            EXPECT_TRUE(live_.empty());
            return false;
        }
        checkBound();
        return true;
    }

    const EventQueue &queue() const { return q_; }
    bool liveEmpty() const { return live_.empty(); }
    std::uint64_t fired() const { return fired_; }

  private:
    void
    schedule(SimTime at)
    {
        const std::uint64_t id = handles_.size();
        handles_.push_back(q_.schedule(at, [this, id] { fire(id); }));
        live_.insert({at, id});
    }

    void
    cancelRandom()
    {
        if (live_.empty())
            return;
        auto it = live_.begin();
        std::advance(it, static_cast<long>(rng_.below(live_.size())));
        handles_[it->second].cancel();
        EXPECT_FALSE(handles_[it->second].pending());
        live_.erase(it);
    }

    /** Heap entries never exceed twice the live events plus the floor
     *  below which cancelled entries are left to surface. */
    void
    checkBound() const
    {
        EXPECT_LE(q_.size(), 2 * live_.size() + 64);
    }

    void
    fire(std::uint64_t id)
    {
        ++fired_;
        ASSERT_FALSE(live_.empty());
        EXPECT_EQ(live_.begin()->second, id);
        EXPECT_EQ(live_.begin()->first, now_);
        live_.erase(live_.begin());
        // From inside the callback: cancel ourselves (not in the heap
        // any more, so not counted), schedule more, cancel others.
        const std::uint64_t roll = rng_.below(8);
        if (roll == 0) {
            handles_[id].cancel();
        } else if (roll < 4) {
            schedule(now_ + static_cast<SimTime>(rng_.below(500)));
            schedule(now_); // same instant: fires after older peers
        } else if (roll < 6) {
            cancelRandom();
        }
        checkBound();
    }

    EventQueue q_;
    Rng rng_;
    SimTime now_ = 0;
    std::uint64_t fired_ = 0;
    std::vector<EventHandle> handles_;
    std::set<std::pair<SimTime, std::uint64_t>> live_;
};

TEST(EventQueueTest, RandomMixPopsInReferenceOrder)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        EventQueueModel m(seed);
        for (int i = 0; i < 20000; ++i)
            m.step(i / 2000 % 2 == 0);
        // Drain: every remaining live event fires in key order.
        while (m.runOne()) {
        }
        EXPECT_TRUE(m.liveEmpty());
        EXPECT_TRUE(m.queue().empty());
        EXPECT_GT(m.fired(), 2000u);
    }
}

TEST(EventQueueTest, MassCancellationShrinksTheHeap)
{
    // Cancel 99% of 10k timers in random order: the heap must follow
    // the live count down instead of keeping every dead timer until it
    // comes due.
    EventQueue q;
    int fired = 0;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 10000; ++i)
        handles.push_back(q.schedule(1000 + i, [&] { ++fired; }));
    Rng rng(42);
    for (std::size_t live = handles.size(); live > 100; --live) {
        const std::size_t pick = rng.below(live);
        handles[pick].cancel();
        std::swap(handles[pick], handles[live - 1]);
        EXPECT_LE(q.size(), 2 * (live - 1) + 64);
    }
    SimTime now = 0;
    while (q.runNext(now)) {
    }
    EXPECT_EQ(fired, 100);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancellingTheRunningEventIsHarmless)
{
    EventQueue q;
    EventHandle self;
    int fired = 0;
    self = q.schedule(10, [&] {
        ++fired;
        self.cancel();
        EXPECT_FALSE(self.pending());
    });
    q.schedule(20, [&] { ++fired; });
    SimTime now = 0;
    while (q.runNext(now)) {
    }
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, HandleMayOutliveTheQueue)
{
    EventHandle h;
    {
        EventQueue q;
        h = q.schedule(10, [] {});
        EXPECT_TRUE(h.pending());
    }
    EXPECT_FALSE(h.pending());
    h.cancel(); // must not touch the destroyed queue
    EXPECT_FALSE(h.pending());
}

TEST(EventQueueTest, DroppedCallableMayCancelFromItsDestructor)
{
    // The first cancelled callable cancels every target event when it
    // is destroyed, which happens while the queue drops dead entries:
    // the queue must be whole again by then.
    struct CancelOnDestroy
    {
        std::vector<EventHandle> *targets = nullptr;
        ~CancelOnDestroy()
        {
            if (targets) {
                for (EventHandle &h : *targets)
                    h.cancel();
            }
        }
    };
    int fired = 0;
    std::vector<EventHandle> targets;
    EventQueue q;
    for (int i = 0; i < 100; ++i)
        targets.push_back(q.schedule(1000 + i, [&] { ++fired; }));
    std::vector<EventHandle> droppers;
    for (int i = 0; i < 200; ++i) {
        auto guard = std::make_shared<CancelOnDestroy>();
        if (i == 0)
            guard->targets = &targets;
        droppers.push_back(q.schedule(10 + i, [guard] {}));
    }
    for (EventHandle &h : droppers)
        h.cancel();
    for (const EventHandle &h : targets)
        EXPECT_FALSE(h.pending());
    SimTime now = 0;
    EXPECT_FALSE(q.runNext(now));
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(q.empty());
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

TEST(SimulationTest, RunUntilIgnoresCancelledEventsBeforeDeadline)
{
    // A cancelled event due before the deadline must not let the next
    // live event, due after it, run early.
    Simulation sim;
    int fired = 0;
    sim.at(secs(1), [&] { ++fired; }).cancel();
    sim.at(secs(5), [&] { ++fired; });
    sim.runUntil(secs(2));
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(sim.now(), secs(2));
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), secs(5));
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
