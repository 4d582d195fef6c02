#include "stats/metrics.hh"

#include "sim/json.hh"

namespace siprox::stats {

using sim::json::appendEscaped;
using sim::json::renderDouble;

std::uint64_t
MetricsSnapshot::counterOr(std::string_view name,
                           std::uint64_t dflt) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? dflt : it->second;
}

double
MetricsSnapshot::gaugeOr(std::string_view name, double dflt) const
{
    auto it = gauges_.find(name);
    return it == gauges_.end() ? dflt : it->second;
}

MetricsSnapshot
MetricsSnapshot::diff(const MetricsSnapshot &baseline) const
{
    MetricsSnapshot out;
    for (const auto &[name, v] : counters_) {
        std::uint64_t base = baseline.counterOr(name);
        std::uint64_t delta = v >= base ? v - base : 0;
        // Zero deltas are suppressed: a window diff lists only what
        // moved, and counterOr() defaults absent keys to 0 anyway.
        if (delta != 0)
            out.counters_[name] = delta;
    }
    out.gauges_ = gauges_;
    return out;
}

std::string
MetricsSnapshot::toJson() const
{
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, v] : counters_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"";
        appendEscaped(out, name);
        out += "\": ";
        out += std::to_string(v);
    }
    out += first ? "},\n" : "\n  },\n";
    out += "  \"gauges\": {";
    first = true;
    for (const auto &[name, v] : gauges_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"";
        appendEscaped(out, name);
        out += "\": ";
        out += renderDouble(v);
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

std::string
MetricsSnapshot::digest() const
{
    std::string out;
    for (const auto &[name, v] : counters_) {
        out += name;
        out += ' ';
        out += std::to_string(v);
        out += '\n';
    }
    return out;
}

void
MetricsRegistry::setCounter(std::string_view name, std::uint64_t v)
{
    auto it = snap_.counters_.find(name);
    if (it == snap_.counters_.end())
        snap_.counters_.emplace(std::string(name), v);
    else
        it->second = v;
}

void
MetricsRegistry::setGauge(std::string_view name, double v)
{
    auto it = snap_.gauges_.find(name);
    if (it == snap_.gauges_.end())
        snap_.gauges_.emplace(std::string(name), v);
    else
        it->second = v;
}

} // namespace siprox::stats
