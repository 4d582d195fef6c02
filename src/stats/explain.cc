#include "stats/explain.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/json.hh"

namespace siprox::stats {

using sim::json::appendEscaped;
using sim::json::renderDouble;

namespace {

/** Wait counters that represent *blocking* (off-core) time. Cpu and
 *  RunQueue are deliberately absent: on-core demand is the resource
 *  ranking's job (see file header in explain.hh). */
constexpr std::string_view kBlockingWaits[] = {
    "lockspin", "lockblock", "ipc", "socket", "sleep", "throttled",
};

std::string
renderPct(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f%%", v * 100.0);
    return buf;
}

std::string
msOf(sim::SimTime ns)
{
    return std::to_string(ns / 1'000'000) + "ms";
}

/** Stable descending rank: value desc, then name asc. */
void
rankDesc(std::vector<Ranked> &v)
{
    std::sort(v.begin(), v.end(),
              [](const Ranked &a, const Ranked &b) {
                  if (a.value != b.value)
                      return a.value > b.value;
                  return a.name < b.name;
              });
}

/** Utilization of every resource visible in window @p w. */
std::vector<Ranked>
windowResources(const Window &w)
{
    std::vector<Ranked> out;
    double cores = w.gaugeOr("cpu.cores");
    if (cores > 0 && w.duration() > 0) {
        double busy =
            static_cast<double>(w.counterOr("cpu.busyNs"));
        out.push_back(
            {"cpu",
             busy / (static_cast<double>(w.duration()) * cores)});
    }
    for (const auto &[name, v] : w.gauges) {
        if (name.rfind("occ.", 0) == 0)
            out.push_back({name.substr(4), v});
    }
    return out;
}

PhaseAttribution
attributePhase(const Series &s, std::string phase, std::size_t begin,
               std::size_t end, const ExplainOptions &opts)
{
    PhaseAttribution out;
    out.phase = std::move(phase);

    // Blocking-wait shares over the phase's windows.
    double blocking_total = 0;
    std::vector<Ranked> waits;
    for (std::string_view wname : kBlockingWaits) {
        std::string key = "wait.";
        key += wname;
        std::uint64_t sum = 0;
        for (std::size_t i = begin; i < end; ++i)
            sum += s.windows()[i].counterOr(key);
        if (sum > 0) {
            waits.push_back(
                {std::string(wname), static_cast<double>(sum)});
            blocking_total += static_cast<double>(sum);
        }
    }
    if (blocking_total > 0) {
        for (Ranked &r : waits)
            r.value /= blocking_total;
        rankDesc(waits);
        out.topWait = waits.front().name;
        out.waits = std::move(waits);
    }

    // Peak utilization per resource; saturation onset.
    std::map<std::string, double, std::less<>> peaks;
    for (std::size_t i = begin; i < end; ++i) {
        bool saturated = false;
        for (const Ranked &r : windowResources(s.windows()[i])) {
            auto [it, fresh] = peaks.try_emplace(r.name, r.value);
            if (!fresh && r.value > it->second)
                it->second = r.value;
            if (r.value >= opts.saturationThreshold)
                saturated = true;
        }
        if (saturated && out.saturationWindow < 0) {
            out.saturationWindow = static_cast<int>(i);
            out.saturationStartNs = s.windows()[i].startNs;
        }
    }
    for (const auto &[name, peak] : peaks)
        out.resources.push_back({name, peak});
    rankDesc(out.resources);
    if (!out.resources.empty())
        out.topResource = out.resources.front().name;
    return out;
}

} // namespace

const PhaseAttribution *
MachineReport::phase(std::string_view name) const
{
    for (const PhaseAttribution &p : phases) {
        if (p.phase == name)
            return &p;
    }
    return nullptr;
}

const MachineReport *
ExplainReport::machine(std::string_view name) const
{
    for (const MachineReport &m : machines) {
        if (m.machine == name)
            return &m;
    }
    return nullptr;
}

ExplainReport
explain(const TimeSeries &ts, const ExplainOptions &opts)
{
    ExplainReport rep;
    rep.scenario = ts.scenario();
    rep.seed = ts.seed();
    rep.transport = ts.transport();
    rep.windowNs = ts.windowNs();

    const sim::SimTime mstart = ts.measureStartNs();
    const sim::SimTime mend = ts.measureEndNs();
    const bool phased = mend > mstart;

    for (const auto &s : ts.series()) {
        MachineReport mr;
        mr.machine = s->machine();
        mr.hop = s->hop();
        mr.arch = s->arch();
        const auto &wins = s->windows();
        // Phase split on window start: a window beginning before the
        // measured phase is warmup (registration), the rest measure.
        std::size_t split = wins.size();
        if (phased) {
            split = 0;
            while (split < wins.size()
                   && wins[split].startNs < mstart)
                ++split;
        } else {
            split = 0;
        }
        if (split > 0)
            mr.phases.push_back(
                attributePhase(*s, "warmup", 0, split, opts));
        if (split < wins.size())
            mr.phases.push_back(attributePhase(
                *s, "measure", split, wins.size(), opts));
        rep.machines.push_back(std::move(mr));
    }

    // Goodput peak and collapse over the measured phase's windows.
    if (const Series *phones = ts.find(opts.goodputSeries)) {
        double running_peak = 0;
        const auto &wins = phones->windows();
        for (std::size_t i = 0; i < wins.size(); ++i) {
            const Window &w = wins[i];
            if (w.duration() <= 0)
                continue;
            if (phased
                && (w.startNs < mstart || w.endNs > mend))
                continue;
            double secs =
                static_cast<double>(w.duration()) / 1e9;
            double rate = static_cast<double>(
                              w.counterOr(opts.goodputCounter))
                / secs;
            if (rate > running_peak) {
                running_peak = rate;
                rep.goodputPeakWindow = static_cast<int>(i);
                rep.goodputPeakStartNs = w.startNs;
                rep.goodputPeakPerSec = running_peak;
            } else if (running_peak > 0
                       && rep.goodputCollapseWindow < 0
                       && rate
                           < opts.collapseFraction * running_peak) {
                rep.goodputCollapseWindow = static_cast<int>(i);
                rep.goodputCollapseStartNs = w.startNs;
            }
        }
    }

    // Little's law, as the testable lower bound: transaction records
    // live *at least* the serve latency, so sampled occupancy L must
    // be no less than λ·W (within tolerance; reclaim lag only ever
    // adds residency on top). A window with L < λ·W / (1 + tol) means
    // rate, latency, and occupancy disagree.
    for (const auto &s : ts.series()) {
        for (const Window &w : s->windows()) {
            std::uint64_t served = w.counterOr("served.count");
            if (served < opts.littleMinServed || w.duration() <= 0)
                continue;
            double secs =
                static_cast<double>(w.duration()) / 1e9;
            double lam = static_cast<double>(served) / secs;
            double wait_s = w.gaugeOr("latency.meanMs") / 1e3;
            double little_l = lam * wait_s;
            double l = w.gaugeOr("txn.records");
            ++rep.little.checked;
            double err = little_l > l
                ? (little_l - l) / std::max({little_l, l, 1.0})
                : 0.0;
            if (err <= opts.littleTolerance)
                ++rep.little.consistent;
            if (err > rep.little.worstError)
                rep.little.worstError = err;
        }
    }

    return rep;
}

int
kneeIndex(const std::vector<double> &xs, const std::vector<double> &ys)
{
    std::size_t n = std::min(xs.size(), ys.size());
    if (n < 3)
        return -1;
    double dx = xs[n - 1] - xs[0];
    if (dx == 0)
        return -1;
    double slope = (ys[n - 1] - ys[0]) / dx;
    int best = -1;
    double best_dist = 0;
    for (std::size_t i = 1; i + 1 < n; ++i) {
        double chord = ys[0] + slope * (xs[i] - xs[0]);
        double d = std::fabs(ys[i] - chord);
        if (d > best_dist) {
            best_dist = d;
            best = static_cast<int>(i);
        }
    }
    return best;
}

std::string
ExplainReport::text() const
{
    std::string out = "explain: " + scenario + " seed="
        + std::to_string(seed) + " transport=" + transport
        + " window=" + msOf(windowNs) + "\n";

    out += "goodput: ";
    if (goodputPeakWindow < 0) {
        out += "no signal\n";
    } else {
        out += "peak " + renderDouble(goodputPeakPerSec)
            + "/s in window #" + std::to_string(goodputPeakWindow)
            + " @ " + msOf(goodputPeakStartNs);
        if (goodputCollapseWindow >= 0) {
            out += "; collapse in window #"
                + std::to_string(goodputCollapseWindow) + " @ "
                + msOf(goodputCollapseStartNs);
        } else {
            out += "; no collapse";
        }
        out += "\n";
    }

    out += "little: ";
    if (little.checked == 0) {
        out += "no windows checked\n";
    } else {
        out += std::to_string(little.consistent) + "/"
            + std::to_string(little.checked)
            + " windows consistent (worst error "
            + renderPct(little.worstError) + ")\n";
    }

    for (const MachineReport &m : machines) {
        out += "machine " + m.machine;
        if (m.hop >= 0)
            out += " (hop " + std::to_string(m.hop) + ", arch "
                + m.arch + ")";
        out += ":\n";
        for (const PhaseAttribution &p : m.phases) {
            out += "  phase " + p.phase + ":\n";
            out += "    top wait: ";
            if (p.topWait.empty()) {
                out += "none recorded\n";
            } else {
                out += p.topWait + " (";
                bool first = true;
                for (const Ranked &r : p.waits) {
                    if (!first)
                        out += ", ";
                    first = false;
                    out += r.name + " " + renderPct(r.value);
                }
                out += " of blocking wait)\n";
            }
            out += "    top resource: ";
            if (p.topResource.empty()) {
                out += "none sampled\n";
            } else {
                out += p.topResource + " (";
                bool first = true;
                for (const Ranked &r : p.resources) {
                    if (!first)
                        out += ", ";
                    first = false;
                    out += r.name + " peak "
                        + renderDouble(r.value);
                }
                out += ")\n";
            }
            out += "    saturation onset: ";
            if (p.saturationWindow < 0)
                out += "none\n";
            else
                out += "window #"
                    + std::to_string(p.saturationWindow) + " @ "
                    + msOf(p.saturationStartNs) + "\n";
        }
    }
    return out;
}

std::string
ExplainReport::toJson() const
{
    std::string out = "{\n  \"scenario\": \"";
    appendEscaped(out, scenario);
    out += "\",\n  \"seed\": " + std::to_string(seed);
    out += ",\n  \"transport\": \"";
    appendEscaped(out, transport);
    out += "\",\n  \"windowNs\": " + std::to_string(windowNs);
    out += ",\n  \"goodput\": {\"peakWindow\": "
        + std::to_string(goodputPeakWindow) + ", \"peakStartNs\": "
        + std::to_string(goodputPeakStartNs) + ", \"peakPerSec\": "
        + renderDouble(goodputPeakPerSec) + ", \"collapseWindow\": "
        + std::to_string(goodputCollapseWindow)
        + ", \"collapseStartNs\": "
        + std::to_string(goodputCollapseStartNs) + "}";
    out += ",\n  \"little\": {\"checked\": "
        + std::to_string(little.checked) + ", \"consistent\": "
        + std::to_string(little.consistent) + ", \"worstError\": "
        + renderDouble(little.worstError) + "}";
    out += ",\n  \"machines\": [";
    bool first_m = true;
    for (const MachineReport &m : machines) {
        out += first_m ? "\n" : ",\n";
        first_m = false;
        out += "    {\"machine\": \"";
        appendEscaped(out, m.machine);
        out += "\", \"hop\": " + std::to_string(m.hop)
            + ", \"arch\": \"";
        appendEscaped(out, m.arch);
        out += "\", \"phases\": [";
        bool first_p = true;
        for (const PhaseAttribution &p : m.phases) {
            out += first_p ? "\n" : ",\n";
            first_p = false;
            out += "      {\"phase\": \"" + p.phase
                + "\", \"topWait\": \"" + p.topWait
                + "\", \"waits\": [";
            bool first = true;
            for (const Ranked &r : p.waits) {
                out += first ? "" : ", ";
                first = false;
                out += "{\"name\": \"" + r.name
                    + "\", \"share\": " + renderDouble(r.value)
                    + "}";
            }
            out += "], \"topResource\": \"" + p.topResource
                + "\", \"resources\": [";
            first = true;
            for (const Ranked &r : p.resources) {
                out += first ? "" : ", ";
                first = false;
                out += "{\"name\": \"" + r.name
                    + "\", \"peak\": " + renderDouble(r.value)
                    + "}";
            }
            out += "], \"saturationWindow\": "
                + std::to_string(p.saturationWindow)
                + ", \"saturationStartNs\": "
                + std::to_string(p.saturationStartNs) + "}";
        }
        out += first_p ? "]" : "\n    ]";
        out += "}";
    }
    out += first_m ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

} // namespace siprox::stats
