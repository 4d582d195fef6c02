#include "stats/timeseries.hh"

#include <cassert>

#include "sim/json.hh"

namespace siprox::stats {

using sim::json::appendEscaped;
using sim::json::renderDouble;

std::uint64_t
Window::counterOr(std::string_view name, std::uint64_t dflt) const
{
    auto it = counters.find(name);
    return it == counters.end() ? dflt : it->second;
}

double
Window::gaugeOr(std::string_view name, double dflt) const
{
    auto it = gauges.find(name);
    return it == gauges.end() ? dflt : it->second;
}

void
Series::beginWindow(sim::SimTime start)
{
    if (!windows_.empty()) {
        assert(start > windows_.back().startNs);
        windows_.back().endNs = start;
    }
    Window w;
    w.startNs = start;
    w.endNs = start;
    windows_.push_back(std::move(w));
}

void
Series::finish(sim::SimTime end)
{
    if (!windows_.empty() && end > windows_.back().startNs)
        windows_.back().endNs = end;
}

void
Series::counter(std::string_view name, std::uint64_t cumulative)
{
    assert(!windows_.empty());
    auto it = prev_.find(name);
    std::uint64_t base = it == prev_.end() ? 0 : it->second;
    std::uint64_t delta = cumulative >= base ? cumulative - base : 0;
    if (it == prev_.end())
        prev_.emplace(std::string(name), cumulative);
    else
        it->second = cumulative;
    auto &counters = windows_.back().counters;
    auto cit = counters.find(name);
    if (cit == counters.end())
        counters.emplace(std::string(name), delta);
    else
        cit->second += delta;
}

void
Series::gauge(std::string_view name, double value)
{
    assert(!windows_.empty());
    auto &gauges = windows_.back().gauges;
    auto it = gauges.find(name);
    if (it == gauges.end())
        gauges.emplace(std::string(name), value);
    else
        it->second = value;
}

Series &
TimeSeries::add(std::string machine, int hop, std::string arch,
                std::string transport)
{
    series_.push_back(std::make_unique<Series>(
        std::move(machine), hop, std::move(arch),
        std::move(transport)));
    return *series_.back();
}

const Series *
TimeSeries::find(std::string_view machine) const
{
    for (const auto &s : series_) {
        if (s->machine() == machine)
            return s.get();
    }
    return nullptr;
}

std::string
TimeSeries::toJson() const
{
    std::string out = "{\n  \"meta\": {\n    \"scenario\": \"";
    appendEscaped(out, scenario_);
    out += "\",\n    \"seed\": " + std::to_string(seed_);
    out += ",\n    \"windowNs\": " + std::to_string(windowNs_);
    out += ",\n    \"transport\": \"";
    appendEscaped(out, transport_);
    out += "\",\n    \"measureStartNs\": "
        + std::to_string(measureStartNs_);
    out += ",\n    \"measureEndNs\": " + std::to_string(measureEndNs_);
    out += "\n  },\n  \"series\": [";
    bool first_series = true;
    for (const auto &s : series_) {
        out += first_series ? "\n" : ",\n";
        first_series = false;
        out += "    {\n      \"machine\": \"";
        appendEscaped(out, s->machine());
        out += "\",\n      \"hop\": " + std::to_string(s->hop());
        out += ",\n      \"arch\": \"";
        appendEscaped(out, s->arch());
        out += "\",\n      \"transport\": \"";
        appendEscaped(out, s->transport());
        out += "\",\n      \"totals\": {";
        bool first = true;
        for (const auto &[name, v] : s->totals()) {
            out += first ? "\n" : ",\n";
            first = false;
            out += "        \"";
            appendEscaped(out, name);
            out += "\": " + std::to_string(v);
        }
        out += first ? "},\n" : "\n      },\n";
        out += "      \"windows\": [";
        bool first_win = true;
        for (const Window &w : s->windows()) {
            out += first_win ? "\n" : ",\n";
            first_win = false;
            out += "        {\"startNs\": " + std::to_string(w.startNs);
            out += ", \"endNs\": " + std::to_string(w.endNs);
            out += ", \"counters\": {";
            first = true;
            for (const auto &[name, v] : w.counters) {
                out += first ? "" : ", ";
                first = false;
                out += '"';
                appendEscaped(out, name);
                out += "\": " + std::to_string(v);
            }
            out += "}, \"gauges\": {";
            first = true;
            for (const auto &[name, v] : w.gauges) {
                out += first ? "" : ", ";
                first = false;
                out += '"';
                appendEscaped(out, name);
                out += "\": " + renderDouble(v);
            }
            out += "}}";
        }
        out += first_win ? "]" : "\n      ]";
        out += "\n    }";
    }
    out += first_series ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

std::string
TimeSeries::toCsv() const
{
    std::string out = "machine,hop,arch,transport,window_start_ns,"
                      "window_end_ns,metric,kind,value\n";
    for (const auto &s : series_) {
        std::string prefix = s->machine() + ","
            + std::to_string(s->hop()) + "," + s->arch() + ","
            + s->transport() + ",";
        for (const Window &w : s->windows()) {
            std::string wprefix = prefix + std::to_string(w.startNs)
                + "," + std::to_string(w.endNs) + ",";
            for (const auto &[name, v] : w.counters) {
                out += wprefix + name + ",counter,"
                    + std::to_string(v) + "\n";
            }
            for (const auto &[name, v] : w.gauges) {
                out += wprefix + name + ",gauge," + renderDouble(v)
                    + "\n";
            }
        }
    }
    return out;
}

} // namespace siprox::stats
