/**
 * @file
 * Benchmark program. Runs one workload through the simulator's public
 * API (workload::runScenario) on one thread, checks every run, and
 * prints one JSON record on stdout.
 *
 *   perfbench        --workload W --seed N --seconds S   end-to-end metrics
 *   perfbench_traced --workload W --seed N --seconds S   per-layer metrics
 *
 * The simulated result is deterministic per seed; only host time and
 * RSS vary between runs, so each run repeats the workload and reports
 * medians over the repetitions.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "tracer.hh"
#include "workloads.hh"

using namespace siprox;
using perfbench::Cell;
using perfbench::Workload;
namespace trace = perfbench::trace;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Host seconds of one repetition, robust to a slowdown that hits only
 * some cells: the sum over cells of each cell's median over @p reps.
 */
double
medianRepSecs(const std::vector<std::vector<double>> &reps)
{
    double total = 0;
    for (std::size_t c = 0; !reps.empty() && c < reps[0].size(); ++c) {
        std::vector<double> cell;
        for (const auto &r : reps)
            cell.push_back(r[c]);
        total += median(cell);
    }
    return total;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Resident-set figures of this process, in KiB. */
long
procStatusKb(const char *field)
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    long kb = 0;
    const std::size_t len = std::strlen(field);
    while (std::fgets(line, sizeof line, f)) {
        if (std::strncmp(line, field, len) == 0) {
            kb = std::atol(line + len);
            break;
        }
    }
    std::fclose(f);
    return kb;
}

// --- one repetition ------------------------------------------------------

/** Calls a scenario attempts, when the scenario fixes the number. */
std::uint64_t
plannedCalls(const workload::Scenario &sc)
{
    return static_cast<std::uint64_t>(sc.clients)
        * static_cast<std::uint64_t>(sc.callsPerClient);
}

/**
 * The conservation laws every run must satisfy. The only fault
 * injected is a delivery jitter, every scenario lingers past the
 * transaction linger, and nothing in these workloads is refused, so
 * none may be violated.
 */
std::vector<std::string>
checkRun(const Cell &cell, const workload::RunResult &r)
{
    std::vector<std::string> bad;
    auto law = [&](bool ok, const std::string &what) {
        if (!ok)
            bad.push_back(cell.name + ": " + what);
    };
    const net::NetStats &n = r.net;
    law(!r.timedOut, "run hit its safety cap (timedOut)");
    law(n.udpSent == n.udpDelivered + n.udpLost + n.udpDropped,
        "udpSent != udpDelivered + udpLost + udpDropped ("
            + std::to_string(n.udpSent) + " vs "
            + std::to_string(n.udpDelivered) + " + "
            + std::to_string(n.udpLost) + " + "
            + std::to_string(n.udpDropped) + ")");
    law(n.faultDropped == 0 && n.faultDuplicated == 0,
        "datagrams lost or duplicated with only jitter injected");
    if (cell.scenario.measureWindow == 0) {
        law(r.callsCompleted + r.callsFailed == plannedCalls(cell.scenario),
            "callsCompleted + callsFailed != calls attempted ("
                + std::to_string(r.callsCompleted) + " + "
                + std::to_string(r.callsFailed) + " vs "
                + std::to_string(plannedCalls(cell.scenario)) + ")");
    }
    // Each completed call is one INVITE and one BYE transaction.
    law(2 * r.callsCompleted <= r.ops
            && r.ops <= 2 * (r.callsCompleted + r.callsFailed),
        "ops outside [2 x callsCompleted, 2 x calls attempted] (ops="
            + std::to_string(r.ops) + ")");
    law(r.txnEntriesAtEnd == 0,
        "transaction table not drained after the linger (txnEntriesAtEnd="
            + std::to_string(r.txnEntriesAtEnd) + ")");
    law(r.retransEntriesAtEnd == 0,
        "retransmission list not drained (retransEntriesAtEnd="
            + std::to_string(r.retransEntriesAtEnd) + ")");
    law(r.counters.parseErrors == 0, "proxy parse errors");
    law(r.counters.routeFailures == 0, "proxy route failures");
    return bad;
}

/** Everything one pass over a workload's cells produced. */
struct Rep
{
    double hostSecs = 0;
    /** Host seconds of each cell's runScenario call. */
    std::vector<double> cellSecs;
    std::vector<workload::RunResult> results;
};

Rep
runRep(const Workload &w)
{
    Rep rep;
    for (const Cell &c : w.cells) {
        const auto t0 = Clock::now();
        workload::RunResult r = workload::runScenario(c.scenario);
        rep.cellSecs.push_back(since(t0));
        rep.hostSecs += rep.cellSecs.back();
        rep.results.push_back(std::move(r));
    }
    return rep;
}

/** Checks runs against the laws and against the first repetition. */
class Checker
{
  public:
    explicit Checker(bool breakInput) : breakInput_(breakInput) {}

    /**
     * Check one repetition. Measured repetitions add their calls to
     * attempted, and to failed when a check fails.
     */
    void
    check(const Workload &w, Rep &rep, const char *phase)
    {
        auto &firsts = digests_[phase];
        for (std::size_t i = 0; i < w.cells.size(); ++i) {
            workload::RunResult &r = rep.results[i];
            if (breakInput_)
                r.net.udpDelivered += 1; // a packet from nowhere
            std::vector<std::string> bad = checkRun(w.cells[i], r);
            const std::string d = r.digest();
            if (firsts.size() <= i)
                firsts.push_back(d);
            else if (firsts[i] != d)
                bad.push_back(w.cells[i].name
                              + ": digest differs from the first "
                                "repetition at this seed");
            const std::uint64_t attempted = r.callsCompleted + r.callsFailed;
            if (std::string(phase) == "measured") {
                attempted_ += attempted;
                failed_ += bad.empty() ? r.callsFailed : attempted;
            }
            for (std::string &b : bad)
                violations_.push_back(std::string(phase) + ": " + b);
        }
    }

    void addViolation(const std::string &what) { violations_.push_back(what); }

    bool correct() const { return violations_.empty(); }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

  private:
    bool breakInput_;
    std::map<std::string, std::vector<std::string>> digests_;
    std::vector<std::string> violations_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// --- output --------------------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

// --- metrics -------------------------------------------------------------

std::uint64_t
sumOps(const Rep &rep)
{
    std::uint64_t ops = 0;
    for (const auto &r : rep.results)
        ops += r.ops;
    return ops;
}

/**
 * Distance from the paper, in percentage points. tcp_paper: mean over
 * its four TCP cells of |simulated %UDP - paper %UDP| (Fig. 3 and
 * Fig. 5 bars at 500 clients). A workload without TCP cells is held to
 * the paper's UDP bar at 1000 clients (Fig. 3, 28 395 ops/s): the
 * distance of its simulated ops/s from that bar, as a percentage of it.
 */
double
paperErrPp(const Workload &w, const Rep &rep)
{
    double udp = 0;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        if (w.cells[i].udpReference)
            udp = rep.results[i].opsPerSec;
    }
    double sum = 0;
    int n = 0;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        if (w.cells[i].paperPctUdp < 0)
            continue;
        sum += std::fabs(100.0 * ratio(rep.results[i].opsPerSec, udp)
                         - w.cells[i].paperPctUdp);
        ++n;
    }
    if (n > 0)
        return sum / n;
    double ops = 0, secs = 0;
    for (const auto &r : rep.results) {
        ops += static_cast<double>(r.ops);
        secs += sim::toSecs(r.duration);
    }
    return std::fabs(100.0 * ratio(ops / secs, perfbench::kPaperUdp1000) - 100.0);
}

/** Model (simulated-time) metrics; identical for every run at a seed. */
void
modelMetrics(const Workload &w, const Rep &rep, std::vector<Metric> &out)
{
    std::map<std::string, double> cellOps;
    double p50 = 0, p99 = 0;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        const auto &r = rep.results[i];
        cellOps[w.cells[i].name] = r.opsPerSec;
        p50 = std::max(p50, sim::toMsecs(r.inviteP50));
        p99 = std::max(p99, sim::toMsecs(r.inviteP99));
    }
    for (const std::string &name : perfbench::allCellNames()) {
        auto it = cellOps.find(name);
        out.push_back({"model.sim_ops_per_s." + name,
                       it == cellOps.end() ? 0.0 : it->second, "1/s"});
    }
    out.push_back({"model.invite_p50_ms", p50, "ms"});
    out.push_back({"model.invite_p99_ms", p99, "ms"});
}

/** Per-operation counts read from the run results (exact). */
void
countMetrics(const Rep &rep, std::vector<Metric> &out)
{
    std::uint64_t events = 0, pkts = 0, connects = 0;
    std::uint64_t fdReq = 0, fdHits = 0, scanVisits = 0, locMiss = 0;
    std::uint64_t relays = 0, retrans = 0, reconnects = 0;
    for (const auto &r : rep.results) {
        events += r.simEvents;
        pkts += r.net.udpSent + r.net.tcpSegments + r.net.sctpMessages
            + r.net.sstFrames;
        connects += r.net.tcpConnects;
        fdReq += r.counters.fdRequests;
        fdHits += r.counters.fdCacheHits;
        scanVisits += r.counters.idleScanVisited;
        locMiss += r.counters.locMissForwards;
        relays += r.dispatcherStats.requestsRouted
            + r.dispatcherStats.responsesRouted;
        retrans += r.phoneRetransmissions;
        reconnects += r.reconnects;
    }
    const double ops = static_cast<double>(sumOps(rep));
    auto per = [&](std::uint64_t v) {
        return ratio(static_cast<double>(v), ops);
    };
    out.push_back({"sim.events_per_op", per(events), "1/op"});
    out.push_back({"net.pkts_per_op", per(pkts), "1/op"});
    out.push_back({"net.tcp_connects_per_op", per(connects), "1/op"});
    out.push_back({"core.fd_requests_per_op", per(fdReq), "1/op"});
    out.push_back({"core.fd_cache_hit_ratio",
                   ratio(static_cast<double>(fdHits),
                         static_cast<double>(fdHits + fdReq)),
                   "ratio"});
    out.push_back({"core.idle_scan_visits_per_op", per(scanVisits), "1/op"});
    out.push_back({"core.loc_miss_forwards_per_op", per(locMiss), "1/op"});
    out.push_back({"core.dispatcher_relays_per_op", per(relays), "1/op"});
    out.push_back({"phone.retransmissions_per_op", per(retrans), "1/op"});
    out.push_back({"phone.reconnects_per_op", per(reconnects), "1/op"});
}

/** Retained-bytes ledgers; peaks over the workload's cells. */
void
ledgerMetrics(const Rep &rep, std::vector<Metric> &out)
{
    double frame = 0, slab = 0, arena = 0;
    for (const auto &r : rep.results) {
        frame = std::max(frame, static_cast<double>(r.memFramePoolPeak));
        slab = std::max(slab, static_cast<double>(r.memEventSlabPeak));
        arena = std::max(arena, static_cast<double>(r.memArenaPeak));
    }
    const double mb = 1024.0 * 1024.0;
    out.push_back({"sim.frame_pool_peak_mb", frame / mb, "MB"});
    out.push_back({"sim.event_slab_peak_mb", slab / mb, "MB"});
    out.push_back({"sim.arena_peak_mb", arena / mb, "MB"});
}

// --- the two modes ---------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    std::string spansPath;
    bool breakConservation = false;
    bool paperReference = false;
};

/**
 * Repeat @p body until @p budget host seconds have passed since
 * @p t0, at least @p minReps times and at most @p maxReps; a repetition
 * that would overrun the budget (judged by the median so far) is not
 * started once the minimum is met.
 */
template <class F>
int
repeat(Clock::time_point t0, double budget, int minReps, int maxReps,
       F &&body)
{
    std::vector<double> took;
    while (static_cast<int>(took.size()) < maxReps) {
        const double elapsed = since(t0);
        if (static_cast<int>(took.size()) >= minReps
            && elapsed + median(took) > budget)
            break;
        const auto r0 = Clock::now();
        body();
        took.push_back(since(r0));
    }
    return static_cast<int>(took.size());
}

/** Per-repetition values, kept for the record. */
using Series = std::map<std::string, std::vector<double>>;

int
runUntraced(const Args &a, const Workload &w, const Workload &setup,
            Checker &checker, std::vector<Metric> &out, Series &series)
{
    const auto t0 = Clock::now();
    // Set-up: the same scenarios cut to one call per caller, repeated
    // so its median is steady; 15% of the budget.
    std::vector<std::vector<double>> setupSecs;
    repeat(t0, 0.15 * a.seconds, 5, 40, [&] {
        Rep rep = runRep(setup);
        checker.check(setup, rep, "setup");
        setupSecs.push_back(rep.cellSecs);
        series["setup_wall_s"].push_back(rep.hostSecs);
    });

    std::vector<std::vector<double>> measuredSecs;
    Rep first;
    const int reps = repeat(t0, a.seconds, 2, 1000, [&] {
        Rep rep = runRep(w);
        checker.check(w, rep, "measured");
        measuredSecs.push_back(rep.cellSecs);
        series["measured_wall_s"].push_back(rep.hostSecs);
        series["measured_ops"].push_back(static_cast<double>(sumOps(rep)));
        if (first.results.empty())
            first = std::move(rep);
    });

    std::uint64_t attempted = 0, completed = 0;
    for (const auto &r : first.results) {
        attempted += r.callsCompleted + r.callsFailed;
        completed += r.callsCompleted;
    }
    // Every repetition runs the same operations (checked by digest).
    out.push_back({"sim_ops_per_host_s",
                   ratio(static_cast<double>(sumOps(first)),
                         medianRepSecs(measuredSecs)),
                   "1/s"});
    out.push_back({"setup_s", medianRepSecs(setupSecs), "s"});
    out.push_back({"peak_rss_mb", procStatusKb("VmHWM:") / 1024.0, "MB"});
    out.push_back({"paper_err_pp", paperErrPp(w, first), "pp"});
    out.push_back({"call_success_share",
                   checker.correct() ? ratio(static_cast<double>(completed),
                                             static_cast<double>(attempted))
                                     : 0.0,
                   "ratio"});
    return reps;
}

int
runTraced(const Args &a, const Workload &w, Checker &checker,
          std::vector<Metric> &out, std::vector<std::string> &notes,
          trace::Report &last)
{
    // The first repetition in a fresh process, untraced: its resident
    // growth, over the phones it created, is the per-phone footprint.
    const long rssBefore = procStatusKb("VmRSS:");
    const auto t0 = Clock::now();
    Rep cold = runRep(w);
    checker.check(w, cold, "measured");
    const long hwm = procStatusKb("VmHWM:");
    int phones = 0;
    for (const Cell &c : w.cells)
        phones = std::max(phones, 2 * c.scenario.clients);

    // Then alternate traced and untraced repetitions, at least one each.
    std::vector<double> untraced, traced;
    trace::Report sum;
    Rep tracedRep;
    const int reps = 1 + repeat(t0, a.seconds, 2, 1000, [&] {
        const bool tracing = traced.size() <= untraced.size();
        if (tracing)
            trace::start();
        Rep rep = runRep(w);
        if (tracing)
            sum += trace::stop();
        checker.check(w, rep, "measured");
        if (!tracing) {
            untraced.push_back(rep.hostSecs);
            return;
        }
        traced.push_back(rep.hostSecs);
        if (tracedRep.results.empty())
            tracedRep = std::move(rep);
    });
    last = sum;
    if (!a.spansPath.empty() && !trace::writeSpans(a.spansPath))
        notes.push_back("could not write spans to " + a.spansPath);

    // Invariant: layer self times sum exactly to the traced total.
    std::uint64_t layerSum = 0;
    for (int l = 0; l < trace::kLayers; ++l)
        layerSum += sum.layerSelfNs[l];
    if (layerSum != sum.totalNs) {
        checker.addViolation("trace: layer self times sum to "
                             + std::to_string(layerSum) + " ns, not the "
                             + std::to_string(sum.totalNs) + " ns total");
    }

    const double tracedRuns = static_cast<double>(traced.size());
    const double ops = static_cast<double>(sumOps(tracedRep)) * tracedRuns;
    auto per = [&](double v) { return ratio(v, ops); };
    auto share = [&](int layer) {
        return ratio(static_cast<double>(sum.layerSelfNs[layer]),
                     static_cast<double>(sum.totalNs));
    };
    auto nsPerCall = [&](const char *fn) {
        trace::FnTotals t = sum.fn(fn);
        return ratio(static_cast<double>(t.inclusiveNs),
                     static_cast<double>(t.calls));
    };

    countMetrics(tracedRep, out);
    std::uint64_t events = 0, tcpBytes = 0;
    for (const auto &r : tracedRep.results) {
        events += r.simEvents;
        tcpBytes += r.net.tcpBytes;
    }
    out.push_back({"sim.events_per_host_s",
                   ratio(static_cast<double>(events), median(untraced)),
                   "1/s"});
    out.push_back({"sim.self_share", share(trace::kSim), "share"});
    out.push_back({"sim.costcenter_lookups_per_op",
                   per(static_cast<double>(
                       sum.fn("sim::CostCenters::id").calls)),
                   "1/op"});
    ledgerMetrics(cold, out);
    out.push_back({"phone.rss_kb_per_phone",
                   ratio(static_cast<double>(hwm - rssBefore), phones),
                   "KB"});
    out.push_back({"sip.parse_calls_per_op",
                   per(static_cast<double>(
                       sum.fn("sip::parseMessage").calls)),
                   "1/op"});
    out.push_back({"sip.parse_ns_per_call", nsPerCall("sip::parseMessage"),
                   "ns"});
    out.push_back({"sip.serialize_ns_per_call",
                   nsPerCall("sip::SipMessage::serialize"), "ns"});
    out.push_back({"sip.framer_ns_per_call",
                   nsPerCall("sip::StreamFramer::next"), "ns"});
    out.push_back({"sip.host_share", share(trace::kSip), "share"});
    out.push_back({"sip.allocs_per_op",
                   per(static_cast<double>(sum.layerAllocs[trace::kSip])),
                   "1/op"});
    out.push_back({"net.bytes_per_op",
                   per(static_cast<double>(sum.datagramBytes))
                       + ratio(static_cast<double>(tcpBytes),
                               static_cast<double>(sumOps(tracedRep))),
                   "B/op"});
    out.push_back({"net.host_share", share(trace::kNet), "share"});
    out.push_back({"core.host_share", share(trace::kCore), "share"});
    out.push_back({"phone.host_share", share(trace::kPhone), "share"});
    out.push_back({"stats.host_share", share(trace::kStats), "share"});
    out.push_back({"workload.host_share", share(trace::kWorkload),
                   "share"});
    out.push_back({"alloc.allocs_per_op",
                   per(static_cast<double>(sum.allocs)), "1/op"});
    out.push_back({"alloc.bytes_per_op",
                   per(static_cast<double>(sum.allocBytes)), "B/op"});
    modelMetrics(w, tracedRep, out);
    out.push_back({"trace.overhead_share",
                   ratio(median(traced), median(untraced)) - 1.0, "share"});

    for (const std::string &fn : trace::unresolved())
        notes.push_back("wrapped function not found, no spans: " + fn);
    return reps;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--break-conservation") {
            a.breakConservation = true;
            continue;
        }
        if (k == "--paper-reference") {
            a.paperReference = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--spans")
            a.spansPath = v;
        else
            return false;
    }
    return a.paperReference || (!a.workload.empty() && a.seconds > 0);
}

/** The paper bars the accuracy metric compares against, as JSON. */
void
printPaperReference()
{
    std::string s = "{\"udp_1000_ops_per_s\": "
        + num(perfbench::kPaperUdp1000) + ", \"cells\": [";
    const auto &ref = perfbench::paperReference();
    for (std::size_t i = 0; i < ref.size(); ++i) {
        s += std::string(i ? ", " : "") + "{\"cell\": \"" + ref[i].cell
            + "\", \"figure\": \"" + ref[i].figure
            + "\", \"clients\": " + std::to_string(ref[i].clients)
            + ", \"tcp_ops_per_s\": " + num(ref[i].tcpOpsPerSec)
            + ", \"udp_ops_per_s\": " + num(ref[i].udpOpsPerSec)
            + ", \"pct_udp\": " + num(ref[i].pctUdp()) + "}";
    }
    std::printf("%s]}\n", s.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "[--spans FILE] [--break-conservation] | "
                     "--paper-reference\n",
                     argv[0]);
        return 2;
    }
    if (a.paperReference) {
        printPaperReference();
        return 0;
    }
    auto w = perfbench::makeWorkload(a.workload, a.seed, false);
    auto setup = perfbench::makeWorkload(a.workload, a.seed, true);
    if (!w || !setup) {
        std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
        return 2;
    }

    Checker checker(a.breakConservation);
    std::vector<Metric> metrics;
    Series series;
    std::vector<std::string> notes;
    trace::Report rep;
    const bool traced = trace::compiledIn();
    const int reps = traced
        ? runTraced(a, *w, checker, metrics, notes, rep)
        : runUntraced(a, *w, *setup, checker, metrics, series);
    if (traced) {
        notes.push_back(
            "coroutine entry points (sim::Task) start lazily: their spans "
            "time only frame creation; their bodies run under the event "
            "loop and count in sim.self_share");
        notes.push_back("a span covers only calls between object files");
    }

    std::string s = "{\"workload\": \"" + jsonEscape(a.workload) + "\"";
    s += ", \"seed\": " + std::to_string(a.seed);
    s += ", \"mode\": \"" + std::string(traced ? "traced" : "untraced")
        + "\"";
    s += ", \"repetitions\": " + std::to_string(reps);
    s += ", \"cells\": [";
    for (std::size_t i = 0; i < w->cells.size(); ++i) {
        s += (i ? ", \"" : "\"") + jsonEscape(w->cells[i].scenario.name)
            + "\"";
    }
    s += "], \"compiler\": \"" + jsonEscape(__VERSION__) + "\"";
    s += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
    s += ", \"cxx_flags\": \"" + jsonEscape(PERFBENCH_CXX_FLAGS) + "\"";
    s += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    s += ", \"correct\": ";
    s += checker.correct() ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(checker.attempted());
    s += ", \"failed\": " + std::to_string(checker.failed());
    s += ", \"violations\": [";
    for (std::size_t i = 0; i < checker.violations().size(); ++i) {
        s += (i ? ", \"" : "\"") + jsonEscape(checker.violations()[i])
            + "\"";
    }
    s += "], \"notes\": [";
    for (std::size_t i = 0; i < notes.size(); ++i)
        s += (i ? ", \"" : "\"") + jsonEscape(notes[i]) + "\"";
    s += "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": "
            + num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit
            + "\"}";
    }
    s += "}, \"series\": {";
    bool firstSeries = true;
    for (const auto &[name, vals] : series) {
        s += std::string(firstSeries ? "\"" : ", \"") + name + "\": [";
        for (std::size_t i = 0; i < vals.size(); ++i)
            s += (i ? ", " : "") + num(vals[i]);
        s += "]";
        firstSeries = false;
    }
    s += "}";
    if (traced) {
        s += ", \"trace\": {\"total_ns\": " + std::to_string(rep.totalNs);
        s += ", \"spans\": " + std::to_string(rep.spans);
        s += ", \"spans_kept\": " + std::to_string(rep.spansKept);
        s += ", \"layer_self_ns\": {";
        for (int l = 0; l < trace::kLayers; ++l) {
            s += std::string(l ? ", \"" : "\"") + trace::kLayerNames[l]
                + "\": " + std::to_string(rep.layerSelfNs[l]);
        }
        s += "}, \"functions\": [";
        for (std::size_t i = 0; i < rep.fns.size(); ++i) {
            const trace::FnTotals &f = rep.fns[i];
            s += std::string(i ? ", " : "") + "{\"layer\": \"" + f.layer
                + "\", \"name\": \"" + f.name + "\", \"coroutine\": "
                + (f.coroutine ? "true" : "false")
                + ", \"calls\": " + std::to_string(f.calls)
                + ", \"inclusive_ns\": " + std::to_string(f.inclusiveNs)
                + ", \"self_ns\": " + std::to_string(f.selfNs) + "}";
        }
        s += "]}";
    }
    s += "}";
    std::printf("%s\n", s.c_str());
    return 0;
}
