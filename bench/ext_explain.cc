/**
 * @file
 * Self-checking harness for the explain reports: runs the paper's
 * headline pairings with windowed telemetry enabled and asserts that
 * the automatic bottleneck attribution reproduces the §5 findings —
 * not by eyeballing a table, but by failing the build when the ranked
 * attribution disagrees:
 *
 *  1. TCP baseline (no fd cache): the supervisor fd-passing IPC round
 *     trip must rank #1 among the server's blocking waits over the
 *     measured phase.
 *  2. TCP + fd cache: the IPC wait must *not* rank #1 any more — the
 *     fix visibly flips the attribution.
 *  3. Overloaded UDP with no admission control: the server's
 *     saturation-onset window must precede the goodput-collapse
 *     window (saturation is the cause, collapse the effect).
 *
 * Run with SIPROX_BENCH_QUICK=1 or SIPROX_SWEEP_SMOKE=1 for shorter
 * windows; the assertions hold in every mode.
 */

#include <cstdio>
#include <string>

#include "sim/trace.hh"
#include "stats/explain.hh"
#include "sweep_common.hh"

namespace {

using namespace siprox;

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s: %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

/** Run one TCP point with telemetry + recorder and return the server's
 *  measured-phase top blocking wait ("" when none was recorded). */
std::string
tcpTopWait(bool fd_cache)
{
    workload::Scenario sc = bench::sweepScenario(
        core::Transport::Tcp, bench::smokeMode() ? 20 : 100, 0);
    sc.proxy.fdCache = fd_cache;
    sc.proxy.idleStrategy = core::IdleStrategy::LinearScan;
    sc.telemetry.windowMs = 100;

    // Wait-state ranking needs span aggregates; totals are exact
    // regardless of the timeline cap, so keep the buffer small.
    sim::trace::Recorder rec(sim::trace::Recorder::Options{1u << 16});
    sim::trace::setRecorder(&rec);
    workload::RunResult r = workload::runScenario(sc);
    sim::trace::setRecorder(nullptr);
    bench::logPoint(sc, r);

    if (!r.timeseries)
        return "";
    stats::ExplainReport rep = stats::explain(*r.timeseries);
    std::fputs(rep.text().c_str(), stdout);
    const stats::MachineReport *server = rep.machine("server");
    if (!server)
        return "";
    const stats::PhaseAttribution *measure = server->phase("measure");
    return measure ? measure->topWait : "";
}

} // namespace

int
main()
{
    // 1 + 2: the fd-cache attribution flip.
    std::string base = tcpTopWait(false);
    check(base == "ipc",
          "TCP baseline: top server blocking wait is ipc (got '"
              + base + "')");
    std::string cached = tcpTopWait(true);
    check(!cached.empty() && cached != "ipc",
          "TCP fd cache: top server blocking wait is no longer ipc "
          "(got '"
              + cached + "')");

    // 3: overloaded UDP, no admission control — saturation onset must
    // precede goodput collapse. Same shape as ext_overload_sweep's
    // congestion-collapse baseline: slowed costs, a client count past
    // saturation, and a tight caller deadline so queueing delay turns
    // into retransmission amplification.
    workload::Scenario sc =
        workload::paperScenario(core::Transport::Udp, 400, 0);
    sc.name = "UDP/none/400c";
    sc.measureWindow =
        sim::secs(bench::smokeMode() || bench::quickMode() ? 3 : 5);
    sc.maxDuration = sim::secs(60);
    bench::slowCosts(sc.proxy.costs, 40);
    sc.phoneResponseTimeout = sim::msecs(1500);
    sc.phoneRetryBackoffCap = sim::secs(2);
    sc.proxy.txnLinger = sim::msecs(200);
    sc.proxy.overload.policy = core::OverloadPolicy::None;
    sc.proxy.overload.recvQueueCapacity = 512;
    sc.telemetry.windowMs = 250;
    workload::RunResult r = workload::runScenario(sc);
    bench::logPoint(sc, r);

    check(r.timeseries != nullptr, "UDP overload: telemetry captured");
    if (r.timeseries) {
        stats::ExplainReport rep = stats::explain(*r.timeseries);
        std::fputs(rep.text().c_str(), stdout);
        const stats::MachineReport *server = rep.machine("server");
        const stats::PhaseAttribution *measure =
            server ? server->phase("measure") : nullptr;
        check(measure && measure->saturationWindow >= 0,
              "UDP overload: server saturates in the measured phase");
        check(rep.goodputCollapseWindow >= 0,
              "UDP overload: goodput collapse detected");
        if (measure && measure->saturationWindow >= 0
            && rep.goodputCollapseWindow >= 0) {
            check(measure->saturationStartNs
                      < rep.goodputCollapseStartNs,
                  "UDP overload: saturation onset ("
                      + std::to_string(measure->saturationStartNs)
                      + "ns) precedes goodput collapse ("
                      + std::to_string(rep.goodputCollapseStartNs)
                      + "ns)");
        }
    }

    if (failures) {
        std::printf("%d explain self-check(s) FAILED\n", failures);
        return 1;
    }
    std::printf("all explain self-checks passed\n");
    return 0;
}
