/**
 * @file
 * Tests for overload control: the admission controller's hysteresis,
 * token bucket, AIMD feedback, and panic accounting at the unit level;
 * then scenario-level behaviour — 503 + Retry-After with phone
 * backoff, TCP read pause/resume, bounded receive queues, occupancy
 * sampling, and same-seed digest determinism with overload enabled.
 */

#include <gtest/gtest.h>

#include "core/overload.hh"
#include "core/shared.hh"
#include "phone/phone.hh"
#include "stats/timeseries.hh"
#include "workload/scenario.hh"

namespace {

using namespace siprox;
using core::OverloadController;
using core::OverloadPolicy;
using core::ProxyCounters;
using Admission = core::OverloadController::Admission;

// --- controller unit tests --------------------------------------------------

core::OverloadConfig
thresholdConfig()
{
    core::OverloadConfig cfg;
    cfg.policy = OverloadPolicy::ThresholdReject;
    cfg.recvQueueCapacity = 100;
    cfg.highWatermark = 0.85;
    cfg.lowWatermark = 0.50;
    return cfg;
}

TEST(OverloadControllerTest, PolicyNames)
{
    EXPECT_STREQ(core::overloadPolicyName(OverloadPolicy::None),
                 "none");
    EXPECT_STREQ(
        core::overloadPolicyName(OverloadPolicy::ThresholdReject),
        "threshold-reject");
    EXPECT_STREQ(
        core::overloadPolicyName(OverloadPolicy::RateThrottle),
        "rate-throttle");
}

TEST(OverloadControllerTest, PolicyNoneAlwaysAdmits)
{
    OverloadController ctl;
    core::OverloadConfig cfg; // policy None
    ProxyCounters counters;
    ctl.configure(cfg, nullptr, &counters);
    EXPECT_FALSE(ctl.enabled());
    ctl.noteQueueDepth(100000);
    EXPECT_EQ(ctl.admitRequest(sim::secs(1)), Admission::Admit);
    EXPECT_FALSE(ctl.panicDrop(sim::secs(1)));
    EXPECT_FALSE(ctl.tcpReadsPaused(sim::secs(1)));
    EXPECT_FALSE(ctl.acceptsPaused(sim::secs(1)));
}

TEST(OverloadControllerTest, WatermarkHysteresisDoesNotFlap)
{
    OverloadController ctl;
    ProxyCounters counters;
    ctl.configure(thresholdConfig(), nullptr, &counters);

    // Below the high watermark: admit.
    ctl.noteQueueDepth(80);
    EXPECT_EQ(ctl.admitRequest(sim::secs(1)), Admission::Admit);
    EXPECT_FALSE(ctl.shedding());

    // Cross it: shed.
    ctl.noteQueueDepth(90);
    EXPECT_EQ(ctl.admitRequest(sim::secs(1)), Admission::Reject);
    EXPECT_TRUE(ctl.shedding());
    EXPECT_EQ(counters.overloadShedEnters, 1u);

    // Back between the watermarks: still shedding (hysteresis).
    ctl.noteQueueDepth(70);
    EXPECT_EQ(ctl.admitRequest(sim::secs(2)), Admission::Reject);
    EXPECT_TRUE(ctl.shedding());
    EXPECT_EQ(counters.overloadShedEnters, 1u);
    EXPECT_EQ(counters.overloadShedExits, 0u);

    // Below the low watermark: re-admit.
    ctl.noteQueueDepth(40);
    EXPECT_EQ(ctl.admitRequest(sim::secs(3)), Admission::Admit);
    EXPECT_EQ(counters.overloadShedExits, 1u);

    // Between the watermarks again: no re-entry (no flapping).
    ctl.noteQueueDepth(70);
    EXPECT_EQ(ctl.admitRequest(sim::secs(4)), Admission::Admit);
    EXPECT_EQ(counters.overloadShedEnters, 1u);
    EXPECT_EQ(counters.overloadRejected, 2u);
}

TEST(OverloadControllerTest, LatencySignalShedsAndIdleDecayRecovers)
{
    OverloadController ctl;
    core::OverloadConfig cfg = thresholdConfig();
    cfg.latencyHigh = sim::msecs(60);
    cfg.latencyLow = sim::msecs(15);
    cfg.ewmaAlpha = 0.2;
    cfg.ewmaIdleDecay = sim::msecs(100);
    ProxyCounters counters;
    ctl.configure(cfg, nullptr, &counters);

    // Two 200ms samples push the EWMA past 60ms (40, then 72).
    ctl.recordServed(sim::secs(1), sim::msecs(200));
    ctl.recordServed(sim::secs(1), sim::msecs(200));
    EXPECT_GT(ctl.latencyEwma(), sim::msecs(60));
    EXPECT_EQ(ctl.admitRequest(sim::secs(1)), Admission::Reject);

    // Nothing served for a long gap: the EWMA decays as if zero-latency
    // samples arrived, so shedding exits instead of wedging forever.
    EXPECT_EQ(ctl.admitRequest(sim::secs(30)), Admission::Admit);
    EXPECT_LE(ctl.latencyEwma(), sim::msecs(15));
    EXPECT_FALSE(ctl.shedding());
}

TEST(OverloadControllerTest, TokenBucketDepletesAndRefills)
{
    OverloadController ctl;
    core::OverloadConfig cfg;
    cfg.policy = OverloadPolicy::RateThrottle;
    cfg.initialRate = 10; // 10 admitted INVITEs per second
    cfg.burstTokens = 2;
    cfg.increasePerInterval = 0; // isolate the bucket from AIMD
    ProxyCounters counters;
    ctl.configure(cfg, nullptr, &counters);

    EXPECT_EQ(ctl.admitRequest(sim::secs(1)), Admission::Admit);
    EXPECT_EQ(ctl.admitRequest(sim::secs(1)), Admission::Admit);
    EXPECT_EQ(ctl.admitRequest(sim::secs(1)), Admission::Reject);
    EXPECT_EQ(counters.overloadThrottled, 1u);

    // 200ms at 10/s refills two tokens (capped at the burst size).
    sim::SimTime later = sim::secs(1) + sim::msecs(200);
    EXPECT_EQ(ctl.admitRequest(later), Admission::Admit);
    EXPECT_EQ(ctl.admitRequest(later), Admission::Admit);
    EXPECT_EQ(ctl.admitRequest(later), Admission::Reject);
    EXPECT_EQ(counters.overloadThrottled, 2u);
}

TEST(OverloadControllerTest, AimdTracksServingLatency)
{
    OverloadController ctl;
    core::OverloadConfig cfg;
    cfg.policy = OverloadPolicy::RateThrottle;
    cfg.initialRate = 1000;
    cfg.minRate = 10;
    cfg.maxRate = 2000;
    cfg.adjustInterval = sim::msecs(50);
    cfg.latencyTarget = sim::msecs(10);
    cfg.decreaseFactor = 0.5;
    cfg.increasePerInterval = 100;
    cfg.ewmaIdleDecay = 0; // EWMA moves only on samples here
    ProxyCounters counters;
    ctl.configure(cfg, nullptr, &counters);

    // High-latency service: multiplicative decrease.
    ctl.recordServed(sim::secs(1), sim::msecs(100)); // seeds the clock
    ctl.recordServed(sim::secs(1) + sim::msecs(60), sim::msecs(100));
    double after_decrease = ctl.currentRate();
    EXPECT_LT(after_decrease, 1000.0);

    // Latency back under target: additive increase. Drain the EWMA
    // with same-timestamp samples *before* the next adjust boundary
    // passes, so the catch-up loop sees a low EWMA and increases.
    for (int i = 0; i < 20; ++i)
        ctl.recordServed(sim::secs(1) + sim::msecs(60), 0);
    ctl.recordServed(sim::secs(1) + sim::msecs(120), 0);
    EXPECT_GT(ctl.currentRate(), after_decrease);
}

TEST(OverloadControllerTest, PanicDropAccounting)
{
    OverloadController ctl;
    core::OverloadConfig cfg = thresholdConfig();
    cfg.panicWatermark = 0.9;
    ProxyCounters counters;
    ctl.configure(cfg, nullptr, &counters);

    ctl.noteQueueDepth(95);
    EXPECT_TRUE(ctl.panicDrop(sim::secs(1)));
    EXPECT_TRUE(ctl.panicDrop(sim::secs(1)));
    EXPECT_EQ(counters.overloadPanicDrops, 2u);

    ctl.noteQueueDepth(10);
    EXPECT_FALSE(ctl.panicDrop(sim::secs(1)));
    EXPECT_EQ(counters.overloadPanicDrops, 2u);
}

TEST(OverloadControllerTest, TcpPauseSlicesGuaranteeResume)
{
    OverloadController ctl;
    core::OverloadConfig cfg = thresholdConfig();
    cfg.pauseSlice = sim::msecs(20);
    ProxyCounters counters;
    ctl.configure(cfg, nullptr, &counters);

    ctl.noteQueueDepth(90); // above the high watermark
    sim::SimTime t = sim::secs(1);
    EXPECT_TRUE(ctl.tcpReadsPaused(t));
    EXPECT_EQ(counters.tcpReadPauses, 1u);
    EXPECT_TRUE(ctl.tcpReadsPaused(t + sim::msecs(10)));

    // Slice over: one read pass is guaranteed before re-pausing.
    EXPECT_FALSE(ctl.tcpReadsPaused(t + sim::msecs(25)));
    EXPECT_EQ(counters.tcpReadResumes, 1u);
    EXPECT_TRUE(ctl.tcpReadsPaused(t + sim::msecs(25)));
    EXPECT_EQ(counters.tcpReadPauses, 2u);

    // Signal cleared: resume at the slice end and stay resumed.
    ctl.noteQueueDepth(10);
    EXPECT_FALSE(ctl.tcpReadsPaused(t + sim::msecs(50)));
    EXPECT_FALSE(ctl.tcpReadsPaused(t + sim::msecs(51)));
    EXPECT_EQ(counters.tcpReadResumes, 2u);
}

TEST(OverloadControllerTest, AcceptPauseTransitionsCounted)
{
    OverloadController ctl;
    ProxyCounters counters;
    ctl.configure(thresholdConfig(), nullptr, &counters);

    ctl.noteQueueDepth(90);
    EXPECT_TRUE(ctl.acceptsPaused(sim::secs(1)));
    EXPECT_TRUE(ctl.acceptsPaused(sim::secs(1) + sim::msecs(5)));
    EXPECT_EQ(counters.tcpAcceptPauses, 1u); // transition, not polls

    ctl.noteQueueDepth(10);
    EXPECT_FALSE(ctl.acceptsPaused(sim::secs(2)));
    ctl.noteQueueDepth(90);
    EXPECT_TRUE(ctl.acceptsPaused(sim::secs(3)));
    EXPECT_EQ(counters.tcpAcceptPauses, 2u);
}

// --- scenario-level tests ---------------------------------------------------

workload::Scenario
smallScenario(core::Transport transport)
{
    workload::Scenario sc;
    sc.proxy.transport = transport;
    sc.proxy.workers = 4;
    sc.clients = 4;
    sc.callsPerClient = 3;
    sc.clientMachines = 2;
    sc.maxDuration = sim::secs(120);
    return sc;
}

TEST(OverloadScenarioTest, Udp503RejectionAndPhoneBackoff)
{
    workload::Scenario sc = smallScenario(core::Transport::Udp);
    // Force permanent shedding: enter immediately, never exit.
    sc.proxy.overload.policy = OverloadPolicy::ThresholdReject;
    sc.proxy.overload.highWatermark = 0.0;
    sc.proxy.overload.lowWatermark = -1.0;
    sc.phoneRetryBackoffCap = sim::msecs(200);

    workload::RunResult r = workload::runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    // Every INVITE was refused with a 503...
    EXPECT_EQ(r.callsCompleted, 0u);
    EXPECT_GT(r.counters.overloadRejected, 0u);
    EXPECT_EQ(r.phoneRejected503, r.callsFailed);
    // ...which the callers honored with Retry-After backoff.
    EXPECT_GT(r.phoneBackoffs, 0u);
    // REGISTERs are not new work: never rejected.
    EXPECT_EQ(r.counters.registrations, 8u);
}

TEST(OverloadScenarioTest, TcpReadPauseRoundTrip)
{
    workload::Scenario sc = smallScenario(core::Transport::Tcp);
    sc.proxy.overload.policy = OverloadPolicy::ThresholdReject;
    // A tiny table capacity makes any in-flight INVITE (two map
    // entries, lingering 1s) look like queue pressure, so workers
    // pause reads; the slice bound must always resume them.
    // Registration is unaffected: REGISTERs create no txn records.
    sc.proxy.overload.txnTableCapacity = 4;
    sc.proxy.overload.highWatermark = 0.5;
    sc.proxy.overload.lowWatermark = 0.25;
    sc.phoneRetryBackoffCap = sim::msecs(200);

    workload::RunResult r = workload::runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(r.counters.tcpReadPauses, 0u);
    EXPECT_GT(r.counters.tcpReadResumes, 0u);
    // Every pause is matched by a resume (one may be in flight).
    EXPECT_LE(r.counters.tcpReadPauses - r.counters.tcpReadResumes,
              1u);
    // Despite pausing, the run drains: all calls resolved one way or
    // the other.
    EXPECT_EQ(r.callsCompleted + r.callsFailed, 4u * 3u);
}

TEST(OverloadScenarioTest, RateThrottleLimitsAdmission)
{
    workload::Scenario sc = smallScenario(core::Transport::Udp);
    sc.proxy.overload.policy = OverloadPolicy::RateThrottle;
    sc.proxy.overload.initialRate = 2;
    sc.proxy.overload.maxRate = 2;
    sc.proxy.overload.minRate = 2;
    sc.proxy.overload.burstTokens = 1;
    sc.phoneRetryBackoffCap = sim::msecs(500);

    workload::RunResult r = workload::runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(r.counters.overloadThrottled, 0u);
    // The bucket admits steadily, so some calls do complete.
    EXPECT_GT(r.callsCompleted, 0u);
    EXPECT_EQ(r.callsCompleted + r.callsFailed, 4u * 3u);
}

TEST(OverloadScenarioTest, BoundedRecvQueueCountsOverflowDrops)
{
    workload::Scenario sc = smallScenario(core::Transport::Udp);
    sc.clients = 12;
    sc.net.udpRecvQueue = 2; // tiny kernel buffer
    sc.phoneResponseTimeout = sim::secs(8); // headroom for retransmits

    workload::RunResult r = workload::runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(r.proxyRecvQueueDrops, 0u);
    // The drops surface in the digest for determinism checks.
    EXPECT_NE(r.digest().find("proxyRecvQueueDrops="),
              std::string::npos);
}

TEST(OverloadScenarioTest, OccupancySamplingProducesTimeSeries)
{
    workload::Scenario sc = smallScenario(core::Transport::Udp);
    // The whole small scenario runs in a few ms of sim time, so the
    // telemetry needs the narrowest window to produce a series.
    sc.telemetry.windowMs = 1;

    workload::RunResult r = workload::runScenario(sc);
    ASSERT_NE(r.timeseries, nullptr);
    const stats::Series *server = r.timeseries->find("server");
    ASSERT_NE(server, nullptr);
    const auto &wins = server->windows();
    ASSERT_GT(wins.size(), 1u);
    for (std::size_t i = 1; i < wins.size(); ++i)
        EXPECT_GT(wins[i].startNs, wins[i - 1].startNs);
    // Each window carries the occupancy gauges sampled at its close.
    for (const stats::Window &w : wins) {
        for (const char *g : {"txn.records", "queue.request",
                              "queue.recv"})
            EXPECT_EQ(w.gauges.count(g), 1u) << "@" << w.startNs << " " << g;
    }
    EXPECT_NE(r.digest().find("occupancySamples="),
              std::string::npos);
}

TEST(OverloadScenarioTest, SameSeedDigestsIdenticalWithOverload)
{
    for (OverloadPolicy policy : {OverloadPolicy::ThresholdReject,
                                  OverloadPolicy::RateThrottle}) {
        workload::Scenario sc = smallScenario(core::Transport::Udp);
        sc.proxy.overload.policy = policy;
        // Make the controller actually act during the run. The burst
        // must be smaller than the request count or the bucket never
        // binds and no 503 (and no backoff-jitter RNG draw) happens.
        sc.proxy.overload.latencyHigh = sim::usecs(1);
        sc.proxy.overload.initialRate = 50;
        sc.proxy.overload.burstTokens = 1;
        sc.phoneRetryBackoffCap = sim::msecs(200);
        sc.seed = 42;

        std::string a = workload::runScenario(sc).digest();
        std::string b = workload::runScenario(sc).digest();
        EXPECT_EQ(a, b) << core::overloadPolicyName(policy);

        sc.seed = 43;
        EXPECT_NE(workload::runScenario(sc).digest(), a)
            << core::overloadPolicyName(policy);
    }
}

// --- overload control under the event-driven architecture -------------------

TEST(OverloadEventArchTest, Udp503RejectionUnderEventDriven)
{
    workload::Scenario sc = smallScenario(core::Transport::Udp);
    sc.proxy.arch = core::ArchKind::EventDriven;
    sc.proxy.overload.policy = OverloadPolicy::ThresholdReject;
    sc.proxy.overload.highWatermark = 0.0;
    sc.proxy.overload.lowWatermark = -1.0;
    sc.phoneRetryBackoffCap = sim::msecs(200);

    workload::RunResult r = workload::runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.archKind, core::ArchKind::EventDriven);
    EXPECT_EQ(r.callsCompleted, 0u);
    EXPECT_GT(r.counters.overloadRejected, 0u);
    EXPECT_GT(r.phoneBackoffs, 0u);
    EXPECT_EQ(r.counters.registrations, 8u);
}

TEST(OverloadEventArchTest, RateThrottleUnderEventDriven)
{
    for (core::Transport t :
         {core::Transport::Udp, core::Transport::Tcp}) {
        workload::Scenario sc = smallScenario(t);
        sc.proxy.arch = core::ArchKind::EventDriven;
        sc.proxy.overload.policy = OverloadPolicy::RateThrottle;
        sc.proxy.overload.initialRate = 2;
        sc.proxy.overload.maxRate = 2;
        sc.proxy.overload.minRate = 2;
        sc.proxy.overload.burstTokens = 1;
        sc.phoneRetryBackoffCap = sim::msecs(500);

        workload::RunResult r = workload::runScenario(sc);
        EXPECT_FALSE(r.timedOut) << core::transportName(t);
        EXPECT_EQ(r.archKind, core::ArchKind::EventDriven);
        EXPECT_GT(r.counters.overloadThrottled, 0u)
            << core::transportName(t);
        // The event loops throttle without ever blocking: the run
        // drains and the admitted slice completes.
        EXPECT_GT(r.callsCompleted, 0u) << core::transportName(t);
        EXPECT_EQ(r.callsCompleted + r.callsFailed, 4u * 3u)
            << core::transportName(t);
    }
}

TEST(OverloadEventArchTest, SameSeedDigestsIdenticalEventDriven)
{
    workload::Scenario sc = smallScenario(core::Transport::Udp);
    sc.proxy.arch = core::ArchKind::EventDriven;
    sc.proxy.overload.policy = OverloadPolicy::RateThrottle;
    sc.proxy.overload.initialRate = 50;
    sc.proxy.overload.burstTokens = 1;
    sc.proxy.overload.latencyHigh = sim::usecs(1);
    sc.phoneRetryBackoffCap = sim::msecs(200);
    sc.seed = 42;

    std::string a = workload::runScenario(sc).digest();
    std::string b = workload::runScenario(sc).digest();
    EXPECT_EQ(a, b);
}

TEST(OverloadEventArchTest, HopHoldsForcedOffUnderEventDriven)
{
    // A chained event-driven edge with a Window grant of 1 and a hold
    // budget configured: the event arch must force holds off (its
    // loops never block), fall back to immediate 503s, and still
    // drain every call.
    workload::Scenario sc = smallScenario(core::Transport::Udp);
    sc.chain = {workload::ChainHop{}, workload::ChainHop{}};
    sc.chain[0].arch = core::ArchKind::EventDriven;
    sc.proxy.overload.hop.scheme = core::FeedbackScheme::Window;
    sc.proxy.overload.hop.initialWindow = 1;
    sc.proxy.overload.hop.holdMax = sim::msecs(50);
    sc.phoneRetryBackoffCap = sim::msecs(200);

    workload::RunResult r = workload::runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.callsCompleted + r.callsFailed, 4u * 3u);
    // No INVITE was ever parked: holds require a blocking wait.
    EXPECT_EQ(r.counters.hopThrottleHolds, 0u);
}

// --- phone backoff ----------------------------------------------------------

TEST(PhoneBackoffTest, NeverWaitsLessThanAdvertisedRetryAfter)
{
    const sim::SimTime advertised = sim::secs(4);
    const sim::SimTime cap = sim::secs(1); // cap below the advertisement
    for (int streak = 0; streak < 4; ++streak) {
        for (double u : {0.0, 0.25, 0.5, 0.999}) {
            sim::SimTime wait =
                phone::backoffWait(advertised, streak, cap, u);
            // The historical bugs: the cap cut the wait to 1 s, and
            // the +/-50% jitter could halve it again. Both undercut
            // the downstream's explicit request.
            EXPECT_GE(wait, advertised)
                << "streak=" << streak << " u=" << u;
        }
    }
}

TEST(PhoneBackoffTest, ConsecutiveRejectionsDoubleUpToCap)
{
    const sim::SimTime advertised = sim::secs(1);
    const sim::SimTime cap = sim::secs(8);
    // No jitter (u=0): the deterministic schedule is 1, 2, 4, 8, 8...
    EXPECT_EQ(phone::backoffWait(advertised, 0, cap, 0.0), sim::secs(1));
    EXPECT_EQ(phone::backoffWait(advertised, 1, cap, 0.0), sim::secs(2));
    EXPECT_EQ(phone::backoffWait(advertised, 2, cap, 0.0), sim::secs(4));
    EXPECT_EQ(phone::backoffWait(advertised, 3, cap, 0.0), sim::secs(8));
    EXPECT_EQ(phone::backoffWait(advertised, 9, cap, 0.0), sim::secs(8));
    // A pathological streak must not overflow the shift.
    EXPECT_EQ(phone::backoffWait(advertised, 1000, cap, 0.0),
              sim::secs(8));
}

TEST(PhoneBackoffTest, JitterOnlyStretchesUpToHalf)
{
    const sim::SimTime advertised = sim::secs(2);
    const sim::SimTime cap = sim::secs(8);
    sim::SimTime lo = phone::backoffWait(advertised, 0, cap, 0.0);
    sim::SimTime hi = phone::backoffWait(advertised, 0, cap, 0.999);
    EXPECT_EQ(lo, advertised);
    EXPECT_GT(hi, lo);
    EXPECT_LE(hi, advertised + advertised / 2);
}

TEST(PhoneBackoffTest, ScenarioHonorsAdvertisedFloor)
{
    // Overloaded proxy advertising Retry-After=1 with a phone cap far
    // below it: callers must still be away >= 1 s per backoff, which
    // bounds how many backoffs fit in the run.
    workload::Scenario sc = smallScenario(core::Transport::Udp);
    sc.proxy.overload.policy = OverloadPolicy::RateThrottle;
    sc.proxy.overload.latencyHigh = sim::usecs(1);
    sc.proxy.overload.initialRate = 50;
    sc.proxy.overload.burstTokens = 1;
    sc.proxy.overload.retryAfterSecs = 1;
    sc.phoneRetryBackoffCap = sim::msecs(10); // far below Retry-After
    sc.maxDuration = sim::secs(30);

    workload::RunResult r = workload::runScenario(sc);
    ASSERT_GT(r.phoneBackoffs, 0u);
    // Each backoff sleeps at least the advertised 1 s, so the run must
    // have lasted at least one full floor-length sleep.
    EXPECT_GE(r.duration, sim::secs(1));
}

} // namespace
