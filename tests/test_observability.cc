/**
 * @file
 * End-to-end observability tests over real scenario runs: recording
 * must not perturb the simulation (byte-identical digests), per-call
 * span decompositions must sum exactly to the end-to-end duration,
 * the fd cache must visibly remove fd-passing IPC wait time, and the
 * exported artifacts (timeline JSON, metrics JSON) must be well
 * formed.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "json_check.hh"
#include "stats/field_table.hh"
#include "sim/trace.hh"
#include "workload/scenario.hh"

namespace {

using namespace siprox;
using namespace siprox::workload;
namespace tr = sim::trace;

struct RecorderGuard
{
    ~RecorderGuard() { tr::setRecorder(nullptr); }
};

/** counterOr default no real counter reaches: marks a missing key. */
constexpr std::uint64_t kAbsent = ~std::uint64_t{0};

/** Every ProxyCounters table field of @p c is in @p m as
 *  <prefix><name>. */
void
expectProxyMetrics(const stats::MetricsSnapshot &m,
                   const std::string &prefix, const core::ProxyCounters &c)
{
    for (const auto &f : core::kProxyCounterFields) {
        EXPECT_EQ(m.counterOr(prefix + f.name, kAbsent), c.*f.member)
            << prefix << f.name;
    }
}

/** Every ProxyCounters table field of @p c is in the totals of
 *  telemetry series @p s as proxy.<name>. */
void
expectProxyTotals(const stats::Series &s, const core::ProxyCounters &c)
{
    for (const auto &f : core::kProxyCounterFields) {
        auto it = s.totals().find(std::string("proxy.") + f.name);
        ASSERT_NE(it, s.totals().end()) << s.machine() << " " << f.name;
        EXPECT_EQ(it->second, c.*f.member) << s.machine() << " " << f.name;
    }
}

Scenario
tcpScenario(bool fd_cache)
{
    Scenario sc = paperScenario(core::Transport::Tcp, 8, 0);
    sc.callsPerClient = 12;
    sc.proxy.fdCache = fd_cache;
    sc.proxy.idleStrategy = core::IdleStrategy::LinearScan;
    return sc;
}

TEST(ObservabilityTest, RecordingDoesNotPerturbTheRun)
{
    RecorderGuard guard;
    RunResult plain = runScenario(tcpScenario(false));

    tr::Recorder rec;
    tr::setRecorder(&rec);
    RunResult recorded = runScenario(tcpScenario(false));
    tr::setRecorder(nullptr);

    // The recorder observes; it must never change scheduling, counters
    // or timing. Byte-identical digests prove it.
    EXPECT_EQ(plain.digest(), recorded.digest());
    EXPECT_GT(rec.eventCount(), 0u);
}

TEST(ObservabilityTest, EverySpanDecompositionSumsExactly)
{
    // TCP, plus UDP at batchMax = 8 on both datagram architectures:
    // there the batch's flush cost lands in the span of its last
    // message, and the sum must still be exact.
    std::vector<Scenario> scenarios{tcpScenario(false)};
    for (core::ArchKind arch :
         {core::ArchKind::Auto, core::ArchKind::EventDriven}) {
        Scenario sc = paperScenario(core::Transport::Udp, 20, 0);
        sc.callsPerClient = 4;
        sc.proxy.arch = arch;
        sc.net.batchMax = 8;
        scenarios.push_back(sc);
    }
    for (const Scenario &sc : scenarios) {
        SCOPED_TRACE(sc.name + " " + core::archKindName(sc.proxy.arch)
                     + " batchMax=" + std::to_string(sc.net.batchMax));
        RecorderGuard guard;
        tr::Recorder rec;
        tr::setRecorder(&rec);
        RunResult r = runScenario(sc);
        tr::setRecorder(nullptr);

        ASSERT_GT(r.callsCompleted, 0u);
        if (sc.net.batchMax > 1)
            EXPECT_GT(r.net.batchRecv.maxDepth, 1u);
        ASSERT_FALSE(rec.calls().empty());
        for (const auto &[id, cs] : rec.calls()) {
            sim::SimTime sum = 0;
            for (sim::SimTime w : cs.wait)
                sum += w;
            // Exact in integer nanoseconds: every nanosecond between
            // span begin and end is attributed to exactly one wait
            // state.
            EXPECT_EQ(sum, cs.total) << "trace id " << id;
            EXPECT_GT(cs.spans, 0) << "trace id " << id;
        }

        // The server machine recorded spans with real CPU time.
        ASSERT_EQ(rec.machineTotals().count("server"), 1u);
        const auto &server = rec.machineTotals().at("server");
        EXPECT_GT(server.spans, 0);
        EXPECT_GT(server.at(tr::Wait::Cpu), 0);
        sim::SimTime sum = 0;
        for (sim::SimTime w : server.wait)
            sum += w;
        EXPECT_EQ(sum, server.total);
    }
}

TEST(ObservabilityTest, FdCacheRemovesIpcWait)
{
    RecorderGuard guard;
    tr::Recorder base_rec;
    tr::setRecorder(&base_rec);
    runScenario(tcpScenario(false));
    tr::setRecorder(nullptr);

    tr::Recorder cached_rec;
    tr::setRecorder(&cached_rec);
    runScenario(tcpScenario(true));
    tr::setRecorder(nullptr);

    ASSERT_EQ(base_rec.machineTotals().count("server"), 1u);
    ASSERT_EQ(cached_rec.machineTotals().count("server"), 1u);
    sim::SimTime base_ipc =
        base_rec.machineTotals().at("server").at(tr::Wait::Ipc);
    sim::SimTime cached_ipc =
        cached_rec.machineTotals().at("server").at(tr::Wait::Ipc);
    // Baseline workers block on the supervisor fd round trip for every
    // outbound send; the cache removes most of that wait outright.
    EXPECT_GT(base_ipc, 0);
    EXPECT_LT(cached_ipc, base_ipc);
}

/** Run @p sc with the recorder on; return the exported timeline. */
siprox::testjson::ValuePtr
recordTimeline(const Scenario &sc, tr::Recorder &rec)
{
    tr::setRecorder(&rec);
    runScenario(sc);
    tr::setRecorder(nullptr);
    std::ostringstream os;
    rec.writeJson(os);
    return siprox::testjson::parse(os.str());
}

/** CPU microseconds of the first span labeled @p label on the server
 *  machine's track, or -1 if there is none. */
double
firstServerSpanCpuUs(const siprox::testjson::Value &doc,
                     const std::string &label)
{
    double server_pid = -1;
    for (const auto &evp : doc.at("traceEvents").items) {
        const auto &e = *evp;
        if (e.at("ph").str == "M" && e.at("name").str == "process_name"
            && e.at("args").at("name").str == "server")
            server_pid = e.at("pid").number;
    }
    for (const auto &evp : doc.at("traceEvents").items) {
        const auto &e = *evp;
        if (e.at("ph").str == "X" && e.has("cat")
            && e.at("cat").str == "span"
            && e.at("pid").number == server_pid && e.at("name").str == label)
            return e.at("args").at("cpu_us").number;
    }
    return -1;
}

// A server span covers the kernel send charge of every message its
// request triggered: the datagram loop flushes a batch's replies
// inside the span of the batch's last message, so at the default
// batchMax of 1 each span owns its own sends. Raising the send cost by
// 10 us must raise the first REGISTER span (one 200 OK sent, on an
// idle server) by exactly 10 us; a flush outside the span would leave
// it unchanged.
TEST(ObservabilityTest, DatagramSpanCoversItsSends)
{
    RecorderGuard guard;
    Scenario sc = paperScenario(core::Transport::Udp, 4, 0);
    sc.callsPerClient = 2;
    tr::Recorder base_rec;
    auto base = recordTimeline(sc, base_rec);

    sc.net.udpSendCost += sim::usecs(10);
    tr::Recorder dear_rec;
    auto dear = recordTimeline(sc, dear_rec);

    double base_us = firstServerSpanCpuUs(*base, "REGISTER");
    double dear_us = firstServerSpanCpuUs(*dear, "REGISTER");
    ASSERT_GT(base_us, 0.0);
    EXPECT_NEAR(dear_us - base_us, 10.0, 1e-6);
}


TEST(ObservabilityTest, TimelineJsonHasTheExpectedTracks)
{
    RecorderGuard guard;
    tr::Recorder rec;
    tr::setRecorder(&rec);
    runScenario(tcpScenario(false));
    tr::setRecorder(nullptr);

    std::ostringstream os;
    rec.writeJson(os);
    auto doc = siprox::testjson::parse(os.str());
    ASSERT_TRUE(doc->at("traceEvents").isArray());

    bool saw_server_pid = false, saw_core_track = false;
    bool saw_sched = false, saw_lock = false, saw_wait = false;
    bool saw_span = false, saw_call_async = false;
    for (const auto &evp : doc->at("traceEvents").items) {
        const auto &e = *evp;
        std::string ph = e.at("ph").str;
        if (ph == "M") {
            if (e.at("name").str == "process_name"
                && e.at("args").at("name").str == "server")
                saw_server_pid = true;
            if (e.at("name").str == "thread_name"
                && e.at("args").at("name").str.rfind("core", 0) == 0)
                saw_core_track = true;
            continue;
        }
        if (!e.has("cat"))
            continue;
        std::string cat = e.at("cat").str;
        if (cat == "sched")
            saw_sched = true;
        else if (cat == "lock")
            saw_lock = true;
        else if (cat == "wait")
            saw_wait = true;
        else if (cat == "span")
            saw_span = true;
        else if (cat == "call" && (ph == "b" || ph == "e"))
            saw_call_async = true;
    }
    EXPECT_TRUE(saw_server_pid);
    EXPECT_TRUE(saw_core_track);
    EXPECT_TRUE(saw_sched);
    EXPECT_TRUE(saw_lock);
    EXPECT_TRUE(saw_wait);
    EXPECT_TRUE(saw_span);
    EXPECT_TRUE(saw_call_async);
}

TEST(ObservabilityTest, CollectMetricsMatchesRunResult)
{
    RunResult r = runScenario(tcpScenario(false));
    stats::MetricsSnapshot m = collectMetrics(r).snapshot();

    EXPECT_EQ(m.counterOr("phone.ops"), r.ops);
    EXPECT_EQ(m.counterOr("phone.callsCompleted"), r.callsCompleted);
    EXPECT_GT(r.counters.fdRequests, 0u);
    EXPECT_GT(r.net.tcpSegments, 0u);
    // Every counter-table field reaches the registry under its table
    // name: proxy.<name>, net.<name>, net.batchRecv<Name>, ...
    expectProxyMetrics(m, "proxy.", r.counters);
    for (const auto &f : net::kNetStatsFields) {
        EXPECT_EQ(m.counterOr(std::string("net.") + f.name, kAbsent),
                  r.net.*f.member)
            << f.name;
    }
    for (const auto &b : net::kNetBatchFields) {
        for (const auto &f : net::kBatchIoFields) {
            const std::string key =
                stats::fieldKey("net." + std::string(b.name), f.name);
            EXPECT_EQ(m.counterOr(key, kAbsent), (r.net.*b.member).*f.member)
                << key;
        }
    }
    // Chain and cluster keys appear only in those topologies.
    EXPECT_EQ(m.counterOr("proxy.chainHops"), 0u);
    EXPECT_EQ(m.counterOr("proxy.hop0.forwards", kAbsent), kAbsent);
    EXPECT_EQ(m.counterOr("disp.messagesIn", kAbsent), kAbsent);
    EXPECT_DOUBLE_EQ(m.gaugeOr("run.opsPerSec"), r.opsPerSec);
    // Unknown names fall back to the caller's default.
    EXPECT_EQ(m.counterOr("no.such.counter", 42u), 42u);
    EXPECT_DOUBLE_EQ(m.gaugeOr("no.such.gauge", 1.5), 1.5);

    // Profiler shares surface as gauges under profile.share.*.
    double cpu_share = m.gaugeOr("profile.share.ser:parse_msg", -1);
    EXPECT_GE(cpu_share, 0.0);
    EXPECT_LE(cpu_share, 1.0);

    // JSON export round-trips through a strict parser.
    auto doc = siprox::testjson::parse(m.toJson());
    EXPECT_EQ(doc->at("counters")
                  .at("phone.callsCompleted")
                  .number,
              static_cast<double>(r.callsCompleted));
    EXPECT_TRUE(doc->at("gauges").has("run.opsPerSec"));
}

TEST(ObservabilityTest, ChainOutputsCoverEveryHopField)
{
    Scenario sc;
    sc.clients = 4;
    sc.callsPerClient = 3;
    sc.clientMachines = 2;
    sc.serverCores = 2;
    sc.proxy.workers = 4;
    sc.chain.assign(2, ChainHop{});
    sc.telemetry.windowMs = 5;
    RunResult r = runScenario(sc);
    EXPECT_GT(r.callsCompleted, 0u);
    ASSERT_EQ(r.hopCounters.size(), 2u);
    ASSERT_NE(r.timeseries, nullptr);
    stats::MetricsSnapshot m = collectMetrics(r).snapshot();

    EXPECT_EQ(m.counterOr("proxy.chainHops"), 2u);
    expectProxyMetrics(m, "proxy.", r.counters);
    int hop_series = 0;
    for (const auto &s : r.timeseries->series()) {
        if (s->hop() < 0)
            continue;
        const auto hop = static_cast<std::size_t>(s->hop());
        ASSERT_LT(hop, r.hopCounters.size());
        expectProxyMetrics(m, "proxy.hop" + std::to_string(hop) + ".",
                           r.hopCounters[hop]);
        expectProxyTotals(*s, r.hopCounters[hop]);
        ++hop_series;
    }
    EXPECT_EQ(hop_series, 2);
}

TEST(ObservabilityTest, ClusterOutputsCoverEveryInstanceField)
{
    Scenario sc;
    sc.clients = 8;
    sc.callsPerClient = 3;
    sc.clientMachines = 2;
    sc.serverCores = 2;
    sc.proxy.stateful = true;
    sc.cluster.instances = 2;
    sc.telemetry.windowMs = 5;
    RunResult r = runScenario(sc);
    EXPECT_GT(r.callsCompleted, 0u);
    ASSERT_EQ(r.instanceCounters.size(), 2u);
    ASSERT_NE(r.timeseries, nullptr);
    stats::MetricsSnapshot m = collectMetrics(r).snapshot();

    EXPECT_EQ(m.counterOr("cluster.instances"), 2u);
    expectProxyMetrics(m, "proxy.", r.counters);
    for (const auto &f : core::kDispatcherFields) {
        EXPECT_EQ(m.counterOr(std::string("disp.") + f.name, kAbsent),
                  r.dispatcherStats.*f.member)
            << f.name;
    }
    for (std::size_t i = 0; i < r.instanceCounters.size(); ++i) {
        const std::string prefix = "proxy." + std::to_string(i) + ".";
        expectProxyMetrics(m, prefix, r.instanceCounters[i]);
        EXPECT_EQ(m.counterOr(prefix + "dispatched", kAbsent),
                  r.dispatcherStats.toInstance[i]);
    }
    int instance_series = 0;
    for (const auto &s : r.timeseries->series()) {
        if (s->arch() == "dispatcher") {
            for (const auto &f : core::kDispatcherFields) {
                EXPECT_EQ(s->totals().at(std::string("disp.") + f.name),
                          r.dispatcherStats.*f.member)
                    << f.name;
            }
        }
        if (s->hop() < 0)
            continue;
        const auto inst = static_cast<std::size_t>(s->hop());
        ASSERT_LT(inst, r.instanceCounters.size());
        expectProxyTotals(*s, r.instanceCounters[inst]);
        ++instance_series;
    }
    EXPECT_EQ(instance_series, 2);
}

TEST(ObservabilityTest, MetricsDigestAndDiff)
{
    RunResult a = runScenario(tcpScenario(false));
    RunResult b = runScenario(tcpScenario(false));
    stats::MetricsSnapshot ma = collectMetrics(a).snapshot();
    stats::MetricsSnapshot mb = collectMetrics(b).snapshot();

    // Same scenario, same seed: the counter digest is deterministic.
    EXPECT_EQ(ma.digest(), mb.digest());

    // diff() subtracts counters pairwise, clamping at zero.
    stats::MetricsSnapshot d = mb.diff(ma);
    EXPECT_EQ(d.counterOr("phone.callsCompleted"), 0u);
    stats::MetricsRegistry reg;
    reg.setCounter("x", 10);
    stats::MetricsSnapshot base = reg.snapshot();
    reg.setCounter("x", 25);
    EXPECT_EQ(reg.snapshot().diff(base).counterOr("x"), 15u);
}

} // namespace
