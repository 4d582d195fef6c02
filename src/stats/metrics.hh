/**
 * @file
 * Unified metrics registry: one place for every named counter and
 * gauge a run produces, behind a snapshot/diff/JSON
 * API with deterministic (lexicographic) ordering. Absorbs the
 * scattered RunResult counters, FaultStats totals, and overload/
 * profiler numbers so tools and benches query one namespace instead
 * of reaching into each subsystem's structs.
 *
 * Naming scheme (see docs/observability.md): dot-separated lowercase
 * paths, subsystem first — "proxy.messagesIn", "phone.callsCompleted",
 * "faults.lost", "profile.share.ser:parse_msg". Counters are integral
 * and monotonic within a run; gauges are point-in-time doubles (a
 * latency histogram contributes its percentiles as gauges).
 */

#ifndef SIPROX_STATS_METRICS_HH
#define SIPROX_STATS_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace siprox::stats {

/**
 * Immutable point-in-time view of a MetricsRegistry. Ordered maps
 * keep every rendering (JSON, digest) byte-deterministic.
 */
class MetricsSnapshot
{
  public:
    const std::map<std::string, std::uint64_t, std::less<>> &
    counters() const
    {
        return counters_;
    }

    const std::map<std::string, double, std::less<>> &
    gauges() const
    {
        return gauges_;
    }

    /** Counter value, or @p dflt when absent. */
    std::uint64_t counterOr(std::string_view name,
                            std::uint64_t dflt = 0) const;

    /** Gauge value, or @p dflt when absent. */
    double gaugeOr(std::string_view name, double dflt = 0.0) const;

    bool
    empty() const
    {
        return counters_.empty() && gauges_.empty();
    }

    /**
     * This snapshot minus @p baseline: counters are subtracted
     * (clamped at zero) and zero deltas are dropped, so the result
     * lists only counters that moved; gauges keep their current
     * values. Use to scope monotonic counters to a measurement window.
     */
    MetricsSnapshot diff(const MetricsSnapshot &baseline) const;

    /** Pretty-printed JSON object {"counters":{...},"gauges":{...}},
     *  keys sorted, suitable for --metrics-json. */
    std::string toJson() const;

    /** Canonical "name value\n" rendering of the counters only —
     *  gauges are derived floats; counters are the determinism
     *  surface. Byte-identical across identical runs. */
    std::string digest() const;

  private:
    friend class MetricsRegistry;

    std::map<std::string, std::uint64_t, std::less<>> counters_;
    std::map<std::string, double, std::less<>> gauges_;
};

/**
 * Mutable registry. Not a sampling system: producers push final (or
 * running) values under stable names; consumers take snapshots.
 */
class MetricsRegistry
{
  public:
    /** Set counter @p name to @p v (absolute). */
    void setCounter(std::string_view name, std::uint64_t v);

    /** Set gauge @p name to @p v. */
    void setGauge(std::string_view name, double v);

    MetricsSnapshot snapshot() const { return snap_; }

    void clear() { snap_ = MetricsSnapshot{}; }

  private:
    MetricsSnapshot snap_;
};

} // namespace siprox::stats

#endif // SIPROX_STATS_METRICS_HH
