/**
 * @file
 * Tests for hop-by-hop distributed overload control over a multi-hop
 * proxy chain: feedback header render/parse, the per-destination
 * throttle table (rate bucket, window slots, on/off restriction, grant
 * TTL fail-open), the controller's advertisement AIMD, chain topology
 * validation, and scenario-level chain runs (UDP and TCP, every
 * feedback scheme, digest determinism).
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/hopctl.hh"
#include "core/overload.hh"
#include "core/shared.hh"
#include "workload/scenario.hh"

namespace {

using namespace siprox;
using core::FeedbackScheme;
using core::HopControlConfig;
using core::HopFeedback;
using core::HopThrottleTable;
using core::ProxyCounters;
using Gate = core::HopThrottleTable::Gate;

// --- feedback header --------------------------------------------------------

TEST(HopFeedbackTest, SchemeNames)
{
    EXPECT_STREQ(core::feedbackSchemeName(FeedbackScheme::None),
                 "none");
    EXPECT_STREQ(core::feedbackSchemeName(FeedbackScheme::OnOff),
                 "onoff");
    EXPECT_STREQ(core::feedbackSchemeName(FeedbackScheme::Rate),
                 "rate");
    EXPECT_STREQ(core::feedbackSchemeName(FeedbackScheme::Window),
                 "window");
}

TEST(HopFeedbackTest, RenderParseRoundTrip)
{
    char buf[48];

    HopFeedback rate;
    rate.scheme = FeedbackScheme::Rate;
    rate.rate = 123.75;
    std::size_t n = core::renderHopFeedback(rate, buf, sizeof(buf));
    ASSERT_GT(n, 0u);
    EXPECT_EQ(std::string_view(buf, n), "rate;r=123.75");
    HopFeedback out;
    ASSERT_TRUE(core::parseHopFeedback({buf, n}, &out));
    EXPECT_EQ(out.scheme, FeedbackScheme::Rate);
    EXPECT_DOUBLE_EQ(out.rate, 123.75);

    HopFeedback win;
    win.scheme = FeedbackScheme::Window;
    win.window = 17;
    n = core::renderHopFeedback(win, buf, sizeof(buf));
    ASSERT_GT(n, 0u);
    EXPECT_EQ(std::string_view(buf, n), "win;w=17");
    ASSERT_TRUE(core::parseHopFeedback({buf, n}, &out));
    EXPECT_EQ(out.scheme, FeedbackScheme::Window);
    EXPECT_EQ(out.window, 17);

    HopFeedback onoff;
    onoff.scheme = FeedbackScheme::OnOff;
    onoff.on = false;
    n = core::renderHopFeedback(onoff, buf, sizeof(buf));
    ASSERT_GT(n, 0u);
    EXPECT_EQ(std::string_view(buf, n), "onoff;on=0");
    ASSERT_TRUE(core::parseHopFeedback({buf, n}, &out));
    EXPECT_EQ(out.scheme, FeedbackScheme::OnOff);
    EXPECT_FALSE(out.on);
}

TEST(HopFeedbackTest, NoneRendersNothingAndMalformedRejected)
{
    char buf[48];
    HopFeedback none; // scheme None
    EXPECT_EQ(core::renderHopFeedback(none, buf, sizeof(buf)), 0u);

    HopFeedback out;
    EXPECT_FALSE(core::parseHopFeedback("garbage", &out));
    EXPECT_FALSE(core::parseHopFeedback("rate;r=", &out));
    EXPECT_FALSE(core::parseHopFeedback("rate;r=abc", &out));
    EXPECT_FALSE(core::parseHopFeedback("win;w=-3", &out));
    EXPECT_FALSE(core::parseHopFeedback("win;w=1x", &out));
    EXPECT_FALSE(core::parseHopFeedback("onoff;on=2", &out));
    EXPECT_FALSE(core::parseHopFeedback("", &out));
}

// --- the upstream throttle table --------------------------------------------

HopControlConfig
gateConfig(FeedbackScheme scheme)
{
    HopControlConfig cfg;
    cfg.scheme = scheme;
    cfg.burstTokens = 2;
    cfg.initialRate = 10;
    cfg.initialWindow = 2;
    cfg.grantTtl = sim::secs(2);
    return cfg;
}

TEST(HopThrottleTableTest, DisabledAlwaysAdmits)
{
    HopThrottleTable gate;
    ProxyCounters counters;
    gate.configure(gateConfig(FeedbackScheme::None), &counters);
    EXPECT_FALSE(gate.enabled());
    net::Addr dst{7, 5060};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1)), Gate::Admit);
}

TEST(HopThrottleTableTest, WindowSlotsReserveAndRelease)
{
    HopThrottleTable gate;
    ProxyCounters counters;
    gate.configure(gateConfig(FeedbackScheme::Window), &counters);
    net::Addr dst{7, 5060};

    // The initial grant (window 2) carries the cold chain.
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1)), Gate::Admit);
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1)), Gate::Admit);
    EXPECT_EQ(gate.pendingToward(dst), 2);
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1)), Gate::Busy);

    // A completion frees exactly one slot.
    gate.noteCompleted(dst);
    EXPECT_EQ(gate.pendingToward(dst), 1);
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1)), Gate::Admit);
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1)), Gate::Busy);

    // Feedback shrinking the window binds immediately.
    HopFeedback fb;
    fb.scheme = FeedbackScheme::Window;
    fb.window = 1;
    gate.applyFeedback(dst, fb, sim::secs(1));
    EXPECT_EQ(counters.hopFeedbackApplied, 1u);
    gate.noteCompleted(dst);
    gate.noteCompleted(dst);
    EXPECT_EQ(gate.pendingToward(dst), 0);
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1)), Gate::Admit);
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1)), Gate::Busy);

    // Releases never underflow.
    gate.noteCompleted(dst);
    gate.noteCompleted(dst);
    gate.noteAborted(dst);
    EXPECT_EQ(gate.pendingToward(dst), 0);
}

TEST(HopThrottleTableTest, RateBucketMetersAndRefills)
{
    HopThrottleTable gate;
    ProxyCounters counters;
    gate.configure(gateConfig(FeedbackScheme::Rate), &counters);
    net::Addr dst{7, 5060};

    HopFeedback fb;
    fb.scheme = FeedbackScheme::Rate;
    fb.rate = 10; // 10/s
    gate.applyFeedback(dst, fb, sim::secs(1));

    // Burst capacity 2: two admits, then Busy.
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1)), Gate::Admit);
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1)), Gate::Admit);
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1)), Gate::Busy);

    // 100ms at 10/s refills one token.
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1) + sim::msecs(100)),
              Gate::Admit);
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1) + sim::msecs(100)),
              Gate::Busy);
}

TEST(HopThrottleTableTest, StaleGrantFailsOpen)
{
    HopThrottleTable gate;
    ProxyCounters counters;
    auto cfg = gateConfig(FeedbackScheme::Rate);
    cfg.grantTtl = sim::secs(2);
    gate.configure(cfg, &counters);
    net::Addr dst{7, 5060};

    // A zero-rate grant throttles everything...
    HopFeedback fb;
    fb.scheme = FeedbackScheme::Rate;
    fb.rate = 0;
    gate.applyFeedback(dst, fb, sim::secs(1));
    // (drain the burst first: tokens were granted at creation)
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1)), Gate::Admit);
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1)), Gate::Admit);
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1)), Gate::Busy);
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(2)), Gate::Busy);

    // ...until it outlives its TTL: then the gate must not keep
    // throttling on dead information (the response stream that would
    // refresh it has dried up).
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(4)), Gate::Admit);
    EXPECT_EQ(counters.hopGrantExpired, 1u);
}

TEST(HopThrottleTableTest, OnOffRestrictionNeedsFreshFeedback)
{
    HopThrottleTable gate;
    ProxyCounters counters;
    gate.configure(gateConfig(FeedbackScheme::OnOff), &counters);
    net::Addr dst{7, 5060};

    // No feedback yet: not restricted (fail open), admits.
    EXPECT_FALSE(gate.restricted(dst, sim::secs(1)));
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1)), Gate::Admit);

    HopFeedback fb;
    fb.scheme = FeedbackScheme::OnOff;
    fb.on = false;
    gate.applyFeedback(dst, fb, sim::secs(1));
    EXPECT_TRUE(gate.restricted(dst, sim::secs(1)));
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(1)), Gate::Busy);

    // Stale stop: fail open again.
    EXPECT_FALSE(gate.restricted(dst, sim::secs(10)));
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(10)), Gate::Admit);

    fb.on = true;
    gate.applyFeedback(dst, fb, sim::secs(10));
    EXPECT_FALSE(gate.restricted(dst, sim::secs(10)));
    EXPECT_EQ(gate.tryAdmit(dst, sim::secs(10)), Gate::Admit);
}

// --- the downstream advertiser ----------------------------------------------

core::OverloadConfig
advertiserConfig(FeedbackScheme scheme)
{
    core::OverloadConfig cfg; // local policy stays None
    cfg.recvQueueCapacity = 100;
    cfg.hop.scheme = scheme;
    cfg.hop.adjustInterval = sim::msecs(50);
    cfg.hop.occHigh = 0.85;
    cfg.hop.occLow = 0.50;
    cfg.hop.latencyTarget = sim::msecs(60);
    cfg.hop.initialRate = 1000;
    cfg.hop.minRate = 50;
    cfg.hop.decreaseFactor = 0.5;
    cfg.hop.increasePerInterval = 100;
    cfg.hop.initialWindow = 8;
    cfg.hop.minWindow = 1;
    return cfg;
}

TEST(HopAdvertiserTest, RateAimdDecreasesUnderPressureRecoversIdle)
{
    core::OverloadController ctl;
    ProxyCounters counters;
    ctl.configure(advertiserConfig(FeedbackScheme::Rate), nullptr,
                  &counters);

    HopFeedback fb = ctl.advertiseFeedback(sim::msecs(10));
    EXPECT_EQ(fb.scheme, FeedbackScheme::Rate);
    EXPECT_DOUBLE_EQ(fb.rate, 1000.0); // initial grant, no tick yet

    // Full queue: every elapsed tick halves the grant.
    ctl.noteQueueDepth(100);
    fb = ctl.advertiseFeedback(sim::msecs(10) + sim::msecs(100));
    EXPECT_DOUBLE_EQ(fb.rate, 250.0); // two ticks at 0.5x

    // Pressure gone (and no latency signal): additive recovery.
    ctl.noteQueueDepth(0);
    fb = ctl.advertiseFeedback(sim::msecs(10) + sim::msecs(200));
    EXPECT_DOUBLE_EQ(fb.rate, 450.0); // two ticks at +100

    // The floor binds no matter how long the pressure lasts.
    ctl.noteQueueDepth(100);
    fb = ctl.advertiseFeedback(sim::secs(60));
    EXPECT_DOUBLE_EQ(fb.rate, 50.0);
}

TEST(HopAdvertiserTest, WindowShrinksMultiplicativelyGrowsByOne)
{
    core::OverloadController ctl;
    ProxyCounters counters;
    ctl.configure(advertiserConfig(FeedbackScheme::Window), nullptr,
                  &counters);

    // Prime the adjust clock (the first call only initializes it).
    HopFeedback fb0 = ctl.advertiseFeedback(sim::msecs(10));
    EXPECT_EQ(fb0.window, 8);

    ctl.noteQueueDepth(100);
    HopFeedback fb =
        ctl.advertiseFeedback(sim::msecs(10) + sim::msecs(100));
    EXPECT_EQ(fb.window, 2); // 8 -> 4 -> 2

    ctl.noteQueueDepth(0);
    fb = ctl.advertiseFeedback(sim::msecs(10) + sim::msecs(200));
    EXPECT_EQ(fb.window, 4); // +1, +1

    ctl.noteQueueDepth(100);
    fb = ctl.advertiseFeedback(sim::secs(60));
    EXPECT_EQ(fb.window, 1); // floor
}

TEST(HopAdvertiserTest, OnOffHysteresisDoesNotFlap)
{
    core::OverloadController ctl;
    ProxyCounters counters;
    ctl.configure(advertiserConfig(FeedbackScheme::OnOff), nullptr,
                  &counters);

    HopFeedback fb = ctl.advertiseFeedback(sim::msecs(10));
    EXPECT_TRUE(fb.on);

    // Past occHigh: stop.
    ctl.noteQueueDepth(90);
    fb = ctl.advertiseFeedback(sim::msecs(10) + sim::msecs(50));
    EXPECT_FALSE(fb.on);

    // Between occLow and occHigh: still stopped (hysteresis).
    ctl.noteQueueDepth(70);
    fb = ctl.advertiseFeedback(sim::msecs(10) + sim::msecs(100));
    EXPECT_FALSE(fb.on);

    // Below occLow: go again.
    ctl.noteQueueDepth(10);
    fb = ctl.advertiseFeedback(sim::msecs(10) + sim::msecs(150));
    EXPECT_TRUE(fb.on);
}

TEST(HopAdvertiserTest, QueuePanickedNeedsNoLocalPolicy)
{
    core::OverloadController ctl;
    ProxyCounters counters;
    core::OverloadConfig cfg; // policy None
    cfg.recvQueueCapacity = 100;
    cfg.panicWatermark = 0.97;
    ctl.configure(cfg, nullptr, &counters);

    EXPECT_FALSE(ctl.queuePanicked());
    ctl.noteQueueDepth(98);
    EXPECT_TRUE(ctl.queuePanicked());
    // Unlike panicDrop(), the peek neither requires an enabled local
    // policy nor counts a drop.
    EXPECT_EQ(counters.overloadPanicDrops, 0u);
    EXPECT_FALSE(ctl.panicDrop(sim::secs(1))); // policy None: no drops
}

// --- chain topology validation ----------------------------------------------

workload::Scenario
chainScenario(core::Transport transport, std::size_t hops)
{
    workload::Scenario sc;
    sc.proxy.transport = transport;
    sc.proxy.workers = 4;
    sc.clients = 4;
    sc.callsPerClient = 3;
    sc.clientMachines = 2;
    sc.serverCores = 2;
    sc.maxDuration = sim::secs(120);
    sc.chain.assign(hops, workload::ChainHop{});
    return sc;
}

TEST(ChainTopologyTest, ValidationNamesTheReason)
{
    workload::Scenario sc = chainScenario(core::Transport::Udp, 2);
    EXPECT_EQ(workload::chainSupportError(sc), nullptr);

    sc.chain.resize(1);
    EXPECT_NE(workload::chainSupportError(sc), nullptr);
    sc.chain.assign(5, workload::ChainHop{});
    EXPECT_NE(workload::chainSupportError(sc), nullptr);

    sc = chainScenario(core::Transport::Udp, 2);
    sc.chain[0].arch = core::ArchKind::SupervisorWorker; // UDP: invalid
    EXPECT_NE(workload::chainSupportError(sc), nullptr);

    sc = chainScenario(core::Transport::Udp, 2);
    sc.proxy.redirect = true;
    EXPECT_NE(workload::chainSupportError(sc), nullptr);

    sc = chainScenario(core::Transport::Udp, 2);
    sc.proxy.stateful = false;
    sc.proxy.overload.hop.scheme = FeedbackScheme::Window;
    EXPECT_NE(workload::chainSupportError(sc), nullptr);

    // An empty chain is always fine (single proxy).
    sc = chainScenario(core::Transport::Udp, 2);
    sc.chain.clear();
    EXPECT_EQ(workload::chainSupportError(sc), nullptr);

    // runScenario refuses invalid topologies loudly.
    sc = chainScenario(core::Transport::Udp, 2);
    sc.chain[1].arch = core::ArchKind::SupervisorWorker;
    EXPECT_THROW(workload::runScenario(sc), std::invalid_argument);
}

// --- scenario-level chain runs ----------------------------------------------

TEST(ChainScenarioTest, TwoHopUdpChainCompletesCalls)
{
    workload::Scenario sc = chainScenario(core::Transport::Udp, 2);
    workload::RunResult r = workload::runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.callsCompleted, 4u * 3u);
    EXPECT_EQ(r.callsFailed, 0u);
    ASSERT_EQ(r.hopCounters.size(), 2u);
    // Both hops registered their local phones (callers at the edge,
    // callees at the destination).
    EXPECT_EQ(r.hopCounters[0].registrations, 4u);
    EXPECT_EQ(r.hopCounters[1].registrations, 4u);
    // Requests traversed both hops.
    EXPECT_GT(r.hopCounters[0].forwards, 0u);
    EXPECT_GT(r.hopCounters[1].forwards, 0u);
    // No feedback scheme: no Overload headers anywhere.
    EXPECT_EQ(r.counters.hopFeedbackSent, 0u);
    EXPECT_EQ(r.counters.hopFeedbackApplied, 0u);
    // The digest names the chain.
    EXPECT_NE(r.digest().find("chainHops=2"), std::string::npos);
    EXPECT_NE(r.digest().find("hop0.forwards="), std::string::npos);
}

TEST(ChainScenarioTest, ThreeHopChainCarriesFeedbackUpstream)
{
    workload::Scenario sc = chainScenario(core::Transport::Udp, 3);
    sc.proxy.overload.hop.scheme = FeedbackScheme::Rate;
    workload::RunResult r = workload::runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.callsCompleted, 4u * 3u);
    ASSERT_EQ(r.hopCounters.size(), 3u);
    // Every hop advertises on the responses it sends upstream; the
    // two upstream hops consume their next hop's advertisements.
    EXPECT_GT(r.hopCounters[1].hopFeedbackSent, 0u);
    EXPECT_GT(r.hopCounters[2].hopFeedbackSent, 0u);
    EXPECT_GT(r.hopCounters[0].hopFeedbackApplied, 0u);
    EXPECT_GT(r.hopCounters[1].hopFeedbackApplied, 0u);
    // The destination has nothing downstream to consume from.
    EXPECT_EQ(r.hopCounters[2].hopFeedbackApplied, 0u);
    // Feedback is stripped hop by hop: phones never see it, and the
    // callers' calls all succeeded (an unthrottled chain is
    // transparent).
    EXPECT_EQ(r.callsFailed, 0u);
}

TEST(ChainScenarioTest, WindowSchemeReleasesEverySlot)
{
    workload::Scenario sc = chainScenario(core::Transport::Udp, 2);
    sc.proxy.overload.hop.scheme = FeedbackScheme::Window;
    sc.proxy.overload.hop.initialWindow = 2; // binds under 4 callers
    workload::RunResult r = workload::runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    // All calls resolve (completed or failed), so every reserved
    // window slot was released: a leak would wedge the run instead.
    EXPECT_EQ(r.callsCompleted + r.callsFailed, 4u * 3u);
    EXPECT_GT(r.callsCompleted, 0u);
    EXPECT_GT(r.counters.hopFeedbackSent, 0u);
}

TEST(ChainScenarioTest, TcpChainCompletesCalls)
{
    workload::Scenario sc = chainScenario(core::Transport::Tcp, 2);
    sc.proxy.overload.hop.scheme = FeedbackScheme::Rate;
    workload::RunResult r = workload::runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.callsCompleted, 4u * 3u) << r.digest();
    ASSERT_EQ(r.hopCounters.size(), 2u);
    // The edge dialed the core proxy: proxy-to-proxy stream sends.
    EXPECT_GT(r.hopCounters[0].outboundConnects, 0u);
    EXPECT_GT(r.counters.hopFeedbackApplied, 0u);
}

TEST(ChainScenarioTest, PerHopArchitecturesCanDiffer)
{
    workload::Scenario sc = chainScenario(core::Transport::Udp, 2);
    sc.proxy.overload.hop.scheme = FeedbackScheme::Rate;
    sc.chain[0].arch = core::ArchKind::EventDriven;
    sc.chain[1].arch = core::ArchKind::SymmetricWorker;
    workload::RunResult r = workload::runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.callsCompleted, 4u * 3u);
}

TEST(ChainScenarioTest, SameSeedChainDigestsIdentical)
{
    for (FeedbackScheme scheme :
         {FeedbackScheme::OnOff, FeedbackScheme::Rate,
          FeedbackScheme::Window}) {
        workload::Scenario sc = chainScenario(core::Transport::Udp, 3);
        sc.proxy.overload.hop.scheme = scheme;
        sc.seed = 42;
        std::string a = workload::runScenario(sc).digest();
        std::string b = workload::runScenario(sc).digest();
        EXPECT_EQ(a, b) << core::feedbackSchemeName(scheme);
        // (A different seed is not asserted to differ: at this light
        // load no RNG draw — backoff jitter — ever happens, so the
        // run is legitimately seed-insensitive.)
    }
}

TEST(ChainScenarioTest, SingleProxyDigestUnchangedByChainCode)
{
    // The load-bearing compatibility property: a chain-free scenario
    // must not mention chains or hop control in its digest at all
    // (existing goldens pin the exact bytes).
    workload::Scenario sc = chainScenario(core::Transport::Udp, 2);
    sc.chain.clear();
    std::string d = workload::runScenario(sc).digest();
    EXPECT_EQ(d.find("chainHops"), std::string::npos);
    EXPECT_EQ(d.find("hopFeedbackSent"), std::string::npos);
    EXPECT_EQ(d.find("hop0."), std::string::npos);
}

} // namespace
