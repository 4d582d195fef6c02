/**
 * @file
 * Unit tests for the observability layer: the legacy line-oriented
 * trace sink, trace-id hashing, span wait accounting, and the typed
 * event recorder with its Chrome trace-event JSON export.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "json_check.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"

namespace {

using namespace siprox::sim;
namespace tr = siprox::sim::trace;

/** Uninstalls sink and recorder even when an assertion fails. */
struct TraceGuard
{
    ~TraceGuard()
    {
        tr::setSink(nullptr);
        tr::setRecorder(nullptr);
    }
};

TEST(TraceSinkTest, InstallDeliverUninstall)
{
    TraceGuard guard;
    EXPECT_FALSE(tr::enabled());

    struct Line
    {
        SimTime t;
        std::string cat, msg;
    };
    std::vector<Line> got;
    tr::setSink([&](SimTime t, std::string_view cat,
                    std::string_view msg) {
        got.push_back({t, std::string(cat), std::string(msg)});
    });
    EXPECT_TRUE(tr::enabled());

    tr::log(usecs(5), "cat", "hello");
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].t, usecs(5));
    EXPECT_EQ(got[0].cat, "cat");
    EXPECT_EQ(got[0].msg, "hello");

    tr::setSink(nullptr);
    EXPECT_FALSE(tr::enabled());
    tr::log(usecs(6), "cat", "dropped"); // must be a safe no-op
    EXPECT_EQ(got.size(), 1u);
}

TEST(TraceIdTest, StableAndCollisionResistant)
{
    std::uint64_t a = tr::traceIdFor("alice-call-1");
    EXPECT_EQ(tr::traceIdFor("alice-call-1"), a);
    EXPECT_NE(tr::traceIdFor("alice-call-2"), a);
    EXPECT_NE(tr::traceIdFor("bob-call-1"), a);
    // 0 is reserved for "no trace id"; even the empty string hashes
    // to something nonzero.
    EXPECT_NE(tr::traceIdFor(""), 0u);
}

TEST(WaitTest, NamesCoverEveryCategory)
{
    EXPECT_EQ(tr::waitName(tr::Wait::Cpu), "cpu");
    EXPECT_EQ(tr::waitName(tr::Wait::RunQueue), "runqueue");
    EXPECT_EQ(tr::waitName(tr::Wait::LockSpin), "lockspin");
    EXPECT_EQ(tr::waitName(tr::Wait::LockBlock), "lockblock");
    EXPECT_EQ(tr::waitName(tr::Wait::Ipc), "ipc");
    EXPECT_EQ(tr::waitName(tr::Wait::Socket), "socket");
    EXPECT_EQ(tr::waitName(tr::Wait::Sleep), "sleep");
    EXPECT_EQ(tr::waitName(tr::Wait::Throttled), "throttled");
}

TEST(SpanCtxTest, WaitAccounting)
{
    tr::SpanCtx s;
    EXPECT_EQ(s.waitSum(), 0);
    s.add(tr::Wait::Cpu, usecs(3));
    s.add(tr::Wait::Ipc, usecs(2));
    s.add(tr::Wait::Cpu, usecs(1));
    EXPECT_EQ(s.at(tr::Wait::Cpu), usecs(4));
    EXPECT_EQ(s.at(tr::Wait::Ipc), usecs(2));
    EXPECT_EQ(s.at(tr::Wait::Socket), 0);
    EXPECT_EQ(s.waitSum(), usecs(6));
}

Task
spannedWork(Process &p)
{
    SpanScope span(p);
    if (auto *s = span.ctx()) {
        s->traceId = tr::traceIdFor("test-call-1");
        s->callId = "test-call-1";
        s->label = "test";
    }
    co_await p.cpu(usecs(100), CostCenters::id("test:trace:work"));
    co_await p.sleepFor(usecs(50));
    co_await p.cpu(usecs(25), CostCenters::id("test:trace:work"));
}

TEST(RecorderTest, SpanDecompositionSumsExactly)
{
    TraceGuard guard;
    tr::Recorder rec;
    tr::setRecorder(&rec);
    EXPECT_TRUE(tr::recording());

    Simulation sim;
    MachineConfig cfg;
    cfg.sched.ctxSwitchCost = 0;
    auto &m = sim.addMachine("m", 1, cfg);
    m.spawn("worker", 0, [](Process &p) { return spannedWork(p); });
    sim.run();
    tr::setRecorder(nullptr);

    auto it = rec.calls().find(tr::traceIdFor("test-call-1"));
    ASSERT_NE(it, rec.calls().end());
    const auto &cs = it->second;
    EXPECT_EQ(cs.spans, 1);
    EXPECT_EQ(cs.wait[static_cast<std::size_t>(tr::Wait::Cpu)],
              usecs(125));
    EXPECT_EQ(cs.wait[static_cast<std::size_t>(tr::Wait::Sleep)],
              usecs(50));
    // The invariant: every nanosecond of the span's wall-clock window
    // lands in exactly one wait bucket.
    SimTime sum = 0;
    for (SimTime w : cs.wait)
        sum += w;
    EXPECT_EQ(sum, cs.total);
    EXPECT_EQ(cs.total, usecs(175));

    ASSERT_EQ(rec.machineTotals().count("m"), 1u);
    EXPECT_EQ(rec.machineTotals().at("m").total, usecs(175));
    EXPECT_GT(rec.eventCount(), 0u);
    EXPECT_EQ(rec.dropped(), 0u);
}

TEST(RecorderTest, JsonExportIsWellFormed)
{
    TraceGuard guard;
    tr::Recorder rec;
    tr::setRecorder(&rec);

    Simulation sim;
    MachineConfig cfg;
    cfg.sched.ctxSwitchCost = 0;
    auto &m = sim.addMachine("m", 1, cfg);
    m.spawn("worker", 0, [](Process &p) { return spannedWork(p); });
    sim.run();
    rec.instant("marker", usecs(1));
    tr::setRecorder(nullptr);

    std::ostringstream os;
    rec.writeJson(os);
    auto doc = siprox::testjson::parse(os.str());
    ASSERT_TRUE(doc->isObject());
    ASSERT_TRUE(doc->at("traceEvents").isArray());
    const auto &events = doc->at("traceEvents").items;
    ASSERT_FALSE(events.empty());

    bool saw_machine_meta = false, saw_span = false, saw_async = false;
    bool saw_instant = false;
    for (const auto &ev : events) {
        const auto &e = *ev;
        ASSERT_TRUE(e.at("ph").isString());
        std::string ph = e.at("ph").str;
        if (ph == "M" && e.at("name").str == "process_name"
            && e.at("args").at("name").str == "m")
            saw_machine_meta = true;
        if (ph == "X" && e.has("cat") && e.at("cat").str == "span") {
            saw_span = true;
            EXPECT_TRUE(e.at("args").has("callId"));
        }
        if (ph == "b" && e.at("cat").str == "call")
            saw_async = true;
        if (ph == "i" && e.at("name").str == "marker")
            saw_instant = true;
        if (ph == "X")
            EXPECT_TRUE(e.at("dur").isNumber());
    }
    EXPECT_TRUE(saw_machine_meta);
    EXPECT_TRUE(saw_span);
    EXPECT_TRUE(saw_async);
    EXPECT_TRUE(saw_instant);
}

TEST(RecorderTest, JsonExportEscapesControlCharacters)
{
    const std::string odd = "odd\tname\n\x01";
    TraceGuard guard;
    tr::Recorder rec;
    tr::setRecorder(&rec);

    Simulation sim;
    MachineConfig cfg;
    cfg.sched.ctxSwitchCost = 0;
    auto &m = sim.addMachine(odd, 1, cfg);
    m.spawn("worker", 0, [](Process &p) { return spannedWork(p); });
    sim.run();
    rec.instant(odd, usecs(1));
    tr::setRecorder(nullptr);

    std::ostringstream os;
    rec.writeJson(os);
    auto doc = siprox::testjson::parse(os.str());
    bool saw_machine = false, saw_instant = false;
    for (const auto &ev : doc->at("traceEvents").items) {
        const auto &e = *ev;
        if (e.at("ph").str == "M" && e.at("name").str == "process_name"
            && e.at("args").at("name").str == odd)
            saw_machine = true;
        if (e.at("ph").str == "i" && e.at("name").str == odd)
            saw_instant = true;
    }
    EXPECT_TRUE(saw_machine);
    EXPECT_TRUE(saw_instant);
}

TEST(RecorderTest, EventCapCountsDropsButKeepsAggregatesExact)
{
    TraceGuard guard;
    tr::Recorder rec(tr::Recorder::Options{4});
    tr::setRecorder(&rec);

    Simulation sim;
    MachineConfig cfg;
    cfg.sched.ctxSwitchCost = 0;
    auto &m = sim.addMachine("m", 1, cfg);
    m.spawn("worker", 0, [](Process &p) { return spannedWork(p); });
    sim.run();
    tr::setRecorder(nullptr);

    EXPECT_LE(rec.eventCount(), 4u);
    EXPECT_GT(rec.dropped(), 0u);
    // Aggregates bypass the event buffer and stay exact.
    auto it = rec.calls().find(tr::traceIdFor("test-call-1"));
    ASSERT_NE(it, rec.calls().end());
    EXPECT_EQ(it->second.total, usecs(175));
    // The export must still be valid JSON.
    std::ostringstream os;
    rec.writeJson(os);
    EXPECT_NO_THROW(siprox::testjson::parse(os.str()));
}

TEST(RecorderTest, SpansWithoutRecorderAreFree)
{
    TraceGuard guard;
    ASSERT_FALSE(tr::recording());
    Simulation sim;
    MachineConfig cfg;
    cfg.sched.ctxSwitchCost = 0;
    auto &m = sim.addMachine("m", 1, cfg);
    m.spawn("worker", 0, [](Process &p) { return spannedWork(p); });
    sim.run();
    // Nothing to observe: the point is simply that SpanScope without a
    // recorder neither records nor crashes.
    EXPECT_EQ(sim.now(), usecs(175));
}

TEST(RecorderTest, WriteJsonFileFailsCleanlyOnBadPath)
{
    tr::Recorder rec;
    EXPECT_FALSE(
        rec.writeJsonFile("/nonexistent-dir-xyz/trace.json"));
}

} // namespace
