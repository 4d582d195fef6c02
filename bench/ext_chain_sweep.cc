/**
 * @file
 * Extension: hop-by-hop distributed overload control over a 3-hop
 * proxy chain (edge -> core -> destination) — the comparative-study
 * experiment (Hong/Huang/Yan; Shen & Schulzrinne) the single-proxy
 * paper never had.
 *
 * Topology: the destination is the bottleneck (1 worker against the
 * edge/core's full complement on equal 4-core machines), the
 * literature's fan-in shape where the overloaded server sits
 * *downstream* of healthy proxies. Under purely local control the
 * destination can defend itself, but only after the edge and core
 * have already spent parse/route/forward cost on every doomed INVITE
 * and then relay its 503 back upstream; callers give up and retry,
 * and that wasted upstream work plus retransmission amplification is
 * exactly what collapses end-to-end goodput. Distributed control
 * back-propagates the destination's admit grant hop by hop until the
 * edge sheds excess load before the chain spends anything on it.
 *
 * Every series keeps the same tuned *local* controller (rate-throttle
 * on each hop); the distributed series additionally enable one
 * feedback scheme (on/off restriction, explicit rate grant, window
 * grant). The acceptance this sweep pins: at >=3x the chain's
 * saturation load, local-only goodput collapses to <=20% of its own
 * peak while at least two distributed schemes sustain >=50%, on UDP
 * and TCP both.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sweep_common.hh"

int
main()
{
    using namespace siprox;

    struct Series
    {
        const char *label;
        core::FeedbackScheme scheme;
    };
    const std::vector<Series> series = {
        {"local-only", core::FeedbackScheme::None},
        {"hop-onoff", core::FeedbackScheme::OnOff},
        {"hop-rate", core::FeedbackScheme::Rate},
        {"hop-window", core::FeedbackScheme::Window},
    };

    std::vector<core::Transport> transports = {core::Transport::Udp,
                                               core::Transport::Tcp};
    // The bottleneck destination saturates around ~40 closed-loop
    // callers; the top rung offers >=3x that.
    std::vector<int> ladder = {30, 240, 1200};
    double window_secs = bench::quickMode() ? 2.5 : 10;
    bool smoke = bench::smokeMode();
    if (smoke) {
        // CI smoke: UDP only, one pre- and one over-saturation point
        // (the peak reference needs the low rung).
        transports = {core::Transport::Udp};
        ladder = {30, 1200};
        window_secs = 1;
    }

    struct Row
    {
        core::Transport transport;
        const char *scheme;
        int clients;
        workload::RunResult r;
        double goodput = 0;
    };
    std::vector<Row> rows;

    for (core::Transport t : transports) {
        for (const Series &s : series) {
            for (int clients : ladder) {
                workload::Scenario sc =
                    workload::paperScenario(t, clients, 0);
                sc.name = std::string(core::transportName(t)) + "/"
                    + s.label + "/" + std::to_string(clients) + "c";
                sc.measureWindow = sim::secs(window_secs);
                sc.maxDuration = sim::secs(60);
                bench::slowCosts(sc.proxy.costs, 40);
                sc.phoneResponseTimeout = sim::msecs(1500);
                sc.phoneRetryBackoffCap = sim::secs(2);
                sc.proxy.txnLinger = sim::msecs(200);

                // 3-hop chain; the destination's single worker caps it
                // at one core of the 4-core hop machine, so the edge
                // and core have ~4x its capacity — overload lives
                // strictly downstream.
                sc.chain.assign(3, workload::ChainHop{});
                sc.chain[2].workers = 1;
                // The literature's local-control baseline: only the
                // overloaded server defends itself — without feedback
                // the healthy edge and core have no destination-aware
                // signal, so every doomed INVITE costs them forward +
                // relay work. The distributed series keep the local
                // controller on every hop (the advertiser *is* the
                // local controller) with the hop gates on top.
                if (s.scheme == core::FeedbackScheme::None) {
                    sc.chain[0].overloadPolicy =
                        core::OverloadPolicy::None;
                    sc.chain[1].overloadPolicy =
                        core::OverloadPolicy::None;
                }

                // Local controller at the bottleneck: the
                // single-proxy sweep's tuned rate-throttle, scaled to
                // its one-core capacity.
                auto &ov = sc.proxy.overload;
                ov.policy = core::OverloadPolicy::RateThrottle;
                ov.txnTableCapacity = 1400;
                ov.recvQueueCapacity = 512;
                ov.lowWatermark = 0.80;
                ov.latencyHigh = sim::msecs(800);
                ov.latencyLow = sim::msecs(400);
                if (s.scheme == core::FeedbackScheme::None) {
                    // The single-proxy sweep's tuned controller: the
                    // strongest purely local defense we have.
                    ov.initialRate = 300;
                    ov.latencyTarget = sim::msecs(300);
                    ov.decreaseFactor = 0.95;
                    ov.increasePerInterval = 25;
                } else {
                    // Loose safety net: the hop grant is the tight
                    // signal; a local throttle tighter than the
                    // advertised grant would 503 traffic both gates
                    // already admitted, after the full chain cost is
                    // spent.
                    ov.initialRate = 600;
                    ov.latencyTarget = sim::msecs(600);
                    ov.decreaseFactor = 0.95;
                    ov.increasePerInterval = 50;
                }

                // Distributed series: one feedback scheme on top.
                ov.hop.scheme = s.scheme;
                ov.hop.initialRate = 300;
                ov.hop.minRate = 20;
                // UDP punishes over-grant with T1 retransmission
                // storms, so its grants aim lower and cut harder;
                // TCP's flow control forgives overshoot and prefers
                // the deeper pipeline.
                bool udp = t == core::Transport::Udp;
                ov.hop.latencyTarget = sim::msecs(300);
                // React fast: a 25ms tick halves the length of any
                // over-grant excursion, which on UDP is the difference
                // between a queue blip and a retransmission storm.
                ov.hop.adjustInterval = sim::msecs(25);
                // Below saturation (~40 clients) the gate must be
                // transparent, so the burst covers the measured
                // phase's opening herd (every caller fires its first
                // INVITE at once — fewer tokens than callers 503s a
                // cohort into Retry-After backoff that a short smoke
                // window never amortizes). Beyond saturation the
                // burst stays tight: a deep bucket converts every
                // grant-oscillation upswing into a queue-slamming
                // burst at the bottleneck.
                ov.hop.burstTokens = clients <= 40 ? clients + 2 : 8;
                ov.hop.occHigh = 0.85;
                ov.hop.occLow = 0.50;
                // Rate recovers additively (+25 per tick), so it can
                // afford a hard multiplicative cut; the window grant
                // recovers only +1 per tick and needs a gentler one.
                ov.hop.decreaseFactor =
                    s.scheme == core::FeedbackScheme::Window
                        ? (udp ? 0.95 : 0.97)
                        : 0.85;
                ov.hop.windowIncreasePerInterval = udp ? 6 : 8;
                ov.hop.increasePerInterval = 25;
                ov.hop.initialWindow = 64;

                workload::RunResult r = workload::runScenario(sc);
                double goodput = r.duration > 0
                    ? static_cast<double>(r.callsCompleted)
                        / sim::toSecs(r.duration)
                    : 0;
                bench::logPoint(sc, r);
                if (std::getenv("SIPROX_CHAIN_DEBUG")) {
                    std::printf("  util %.2f p50 %lldms p99 %lldms "
                                "rejected503(phone) %llu backoffs %llu\n",
                                r.serverUtilization,
                                (long long)sim::toMsecs(r.inviteP50),
                                (long long)sim::toMsecs(r.inviteP99),
                                (unsigned long long)r.phoneRejected503,
                                (unsigned long long)r.phoneBackoffs);
                    for (std::size_t h = 0; h < r.hopCounters.size(); ++h) {
                        const auto &hc = r.hopCounters[h];
                        std::printf("  hop%zu in %llu fwd %llu gateRej %llu "
                                    "fbApp %llu retransAbs %llu local503 %llu "
                                    "timerB %llu\n",
                                    h,
                                    (unsigned long long)hc.messagesIn,
                                    (unsigned long long)hc.forwards,
                                    (unsigned long long)hc.hopThrottleRejects,
                                    (unsigned long long)hc.hopFeedbackApplied,
                                    (unsigned long long)hc.retransAbsorbed,
                                    (unsigned long long)(hc.overloadRejected
                                                         + hc.overloadThrottled),
                                    (unsigned long long)hc.timerB408s);
                    }
                }
                rows.push_back(
                    Row{t, s.label, clients, std::move(r), goodput});
            }
        }
    }

    stats::Table table(
        {"transport", "scheme", "clients", "goodput/s", "% of peak",
         "gate rejects", "gate drops", "fb sent", "fb applied",
         "local 503s", "retrans", "calls failed"});
    auto peakOf = [&](core::Transport t, const char *scheme) {
        double peak = 0;
        for (const Row &row : rows)
            if (row.transport == t && row.scheme == scheme)
                peak = std::max(peak, row.goodput);
        return peak;
    };
    for (core::Transport t : transports) {
        for (const Series &s : series) {
            double peak = peakOf(t, s.label);
            for (const Row &row : rows) {
                if (row.transport != t || row.scheme != s.label)
                    continue;
                const auto &c = row.r.counters;
                table.addRow(
                    {core::transportName(t), s.label,
                     std::to_string(row.clients),
                     stats::Table::num(row.goodput),
                     peak > 0 ? stats::Table::pct(row.goodput / peak)
                              : "-",
                     std::to_string(c.hopThrottleRejects),
                     std::to_string(c.hopThrottleDrops),
                     std::to_string(c.hopFeedbackSent),
                     std::to_string(c.hopFeedbackApplied),
                     std::to_string(c.overloadRejected
                                    + c.overloadThrottled),
                     std::to_string(row.r.phoneRetransmissions),
                     std::to_string(row.r.callsFailed)});
            }
        }
    }

    std::printf("3-hop chain (edge -> core -> bottleneck destination) "
                "beyond-saturation goodput:\nlocal rate-throttle on "
                "every hop; distributed series add one hop-by-hop "
                "feedback scheme\n\n%s\n",
                table.render().c_str());

    // Acceptance: at the top of the ladder, local-only collapses
    // (<=20% of its own peak) while at least two distributed schemes
    // sustain (>=50%), per transport. Smoke mode (one transport, two
    // rungs, short window) asserts the weaker monotone form at every
    // load point: no distributed scheme falls below local-only, with a
    // 5% tolerance so near-peak rungs (where every series sits at
    // capacity and the short window leaves +/-1-call noise) cannot
    // flake the gate.
    int top = ladder.back();
    bool ok = true;
    for (core::Transport t : transports) {
        auto goodputAt = [&](const char *scheme, int clients) {
            for (const Row &row : rows)
                if (row.transport == t && row.scheme == scheme
                    && row.clients == clients)
                    return row.goodput;
            return 0.0;
        };
        auto topGoodput = [&](const char *scheme) {
            return goodputAt(scheme, top);
        };
        double local_peak = peakOf(t, "local-only");
        double local_frac = local_peak > 0
            ? topGoodput("local-only") / local_peak
            : 0;
        int sustained = 0;
        for (std::size_t i = 1; i < series.size(); ++i) {
            double peak = peakOf(t, series[i].label);
            double frac = peak > 0
                ? topGoodput(series[i].label) / peak
                : 0;
            if (frac >= 0.5)
                ++sustained;
            if (smoke) {
                for (int clients : ladder) {
                    double dist = goodputAt(series[i].label, clients);
                    double local = goodputAt("local-only", clients);
                    if (dist < local * 0.95) {
                        std::printf("FAIL %s: %s goodput %.1f < "
                                    "local-only %.1f at %dc\n",
                                    core::transportName(t),
                                    series[i].label, dist, local,
                                    clients);
                        ok = false;
                    }
                }
            }
        }
        if (!smoke) {
            if (local_frac > 0.20) {
                std::printf("FAIL %s: local-only holds %.0f%% of peak "
                            "at %dc (expected collapse <=20%%)\n",
                            core::transportName(t), local_frac * 100,
                            top);
                ok = false;
            }
            if (sustained < 2) {
                std::printf("FAIL %s: only %d distributed scheme(s) "
                            "sustain >=50%% of peak at %dc "
                            "(expected >=2)\n",
                            core::transportName(t), sustained, top);
                ok = false;
            }
        }
        std::printf("%s @ %dc: local-only %.0f%% of peak, %d/3 "
                    "distributed schemes >=50%%\n",
                    core::transportName(t), top, local_frac * 100,
                    sustained);
    }
    std::printf("%s\n", ok ? "ACCEPTANCE PASS" : "ACCEPTANCE FAIL");
    return ok ? 0 : 1;
}
