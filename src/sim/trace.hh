/**
 * @file
 * Observability: the legacy line-oriented trace sink plus the typed
 * event recorder behind causal spans and Perfetto timeline export.
 *
 * Two independent facilities share this header:
 *
 *  - The original stringly Sink (setSink/enabled/log): examples and
 *    tests install a callback to observe simulation activity as text.
 *
 *  - The Recorder: a typed event collector that turns scheduler run
 *    slices, lock hold/contend intervals, block waits, and per-call
 *    SIP spans into Chrome trace-event JSON loadable in Perfetto,
 *    while aggregating per-call and per-machine wait-state totals.
 *
 * Both are off by default. The hot-path guards are a single pointer
 * load (`recording()`) or a null `Process::span()` check, so the
 * instrumented code allocates nothing and costs one predictable
 * branch when observability is off.
 */

#ifndef SIPROX_SIM_TRACE_HH
#define SIPROX_SIM_TRACE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hh"

namespace siprox::sim {

class Machine;
class Process;

namespace trace {

// ---------------------------------------------------------------------------
// Legacy line-oriented sink
// ---------------------------------------------------------------------------

/** Receives (sim time, category, message) for every trace line. */
using Sink =
    std::function<void(SimTime, std::string_view, std::string_view)>;

/** Install a sink; pass nullptr to disable tracing. */
void setSink(Sink sink);

/** True if a sink is installed; guard expensive message formatting. */
bool enabled();

/** Emit one trace line. No-op when disabled. */
void log(SimTime now, std::string_view category, std::string_view msg);

/** Convenience sink that prints "[time] category: msg" to stdout. */
Sink stdoutSink();

// ---------------------------------------------------------------------------
// Wait-state attribution
// ---------------------------------------------------------------------------

/**
 * Where a process's wall-clock time went while a span was active.
 * These are exactly the categories the paper's §5 explanations name:
 * CPU (including context-switch shares), run-queue delay, spinning on
 * a user-level lock, sleeping on a blocking lock, fd-passing IPC,
 * socket waits, and explicit sleeps.
 */
enum class Wait : std::uint8_t
{
    Cpu,
    RunQueue,
    LockSpin,
    /** Sleeping on a blocking lock. Nothing produces it today (the
     *  only lock is the spinning SpinLock); kept so every artifact
     *  lists the same, stable set of classes. */
    LockBlock,
    Ipc,
    Socket,
    Sleep,
    /** Held by hop-by-hop overload control: the downstream proxy's
     *  advertised rate/window is exhausted and the forward is parked
     *  until a grant frees up (or the hold deadline rejects it). */
    Throttled,
};

inline constexpr std::size_t kWaitCount = 8;

/** Stable lower-case name for a wait category ("cpu", "runqueue"...). */
std::string_view waitName(Wait w);

/**
 * One causal span: the window during which a process handles one SIP
 * message (or one phone call, end to end). While a span is installed
 * on a Process (Process::setSpan), the scheduler and blocking
 * primitives attribute every nanosecond of elapsed simulated time to
 * one Wait bucket, so `end - begin == waitSum()` holds exactly.
 */
struct SpanCtx
{
    /** Causal trace id; 0 until the engine parses the Call-ID. */
    std::uint64_t traceId = 0;
    SimTime begin = 0;
    std::array<SimTime, kWaitCount> wait{};
    /** Short description ("INVITE", "rsp 200", "timeout 408"...). */
    std::string label;
    std::string callId;
    /** When the message was drained as part of a batched dequeue
     *  (recvmmsg model), the batch's size; 0 for unbatched spans. The
     *  export attributes it as a "batched" arg, not a Wait bucket, so
     *  the exact-sum invariant is untouched. */
    std::uint32_t batchDepth = 0;

    void
    add(Wait w, SimTime d)
    {
        wait[static_cast<std::size_t>(w)] += d;
    }

    SimTime
    at(Wait w) const
    {
        return wait[static_cast<std::size_t>(w)];
    }

    SimTime waitSum() const;
};

/**
 * Stable 64-bit trace id for a Call-ID (FNV-1a; identical across runs
 * and platforms, unlike std::hash).
 */
std::uint64_t traceIdFor(std::string_view call_id);

// ---------------------------------------------------------------------------
// Typed event recorder
// ---------------------------------------------------------------------------

/**
 * Collects typed timeline events and per-call aggregates; exports
 * Chrome trace-event JSON ("trace event format") that Perfetto and
 * chrome://tracing load directly.
 *
 * Track layout: each machine is a trace "process" (pid = machine id
 * + 1); its CPU cores, simulated processes, and locks are "threads".
 * Per-call spans additionally appear as async begin/end pairs under a
 * synthetic pid 0 so one call's journey across machines reads as a
 * single track.
 *
 * All record methods assume the caller already checked recording();
 * they are never on the no-observer hot path.
 */
class Recorder
{
  public:
    struct Options
    {
        /** Events kept in memory; beyond this, events are counted as
         *  dropped but aggregates stay exact. */
        std::size_t maxEvents = 1u << 22;
    };

    /** Per-call aggregate across all recorded spans of one trace id. */
    struct CallStats
    {
        SimTime total = 0;
        std::array<SimTime, kWaitCount> wait{};
        int spans = 0;
    };

    /** Per-machine aggregate across all spans recorded on it. */
    struct WaitTotals
    {
        SimTime total = 0;
        std::array<SimTime, kWaitCount> wait{};
        int spans = 0;

        SimTime
        at(Wait w) const
        {
            return wait[static_cast<std::size_t>(w)];
        }
    };

    Recorder();
    explicit Recorder(Options opts);

    // --- recording hooks (callers must check recording()) ---

    /** A process occupied a core for [start, start+dur); the first
     *  @p ctx_part of it was context-switch overhead. */
    void runSlice(const Machine &m, int core, const Process &p,
                  SimTime start, SimTime dur, SimTime ctx_part);

    /** A process waited on the run queue for [start, start+dur). */
    void runqueueSlice(const Process &p, SimTime start, SimTime dur);

    /** A process was blocked (reason + class) for [start, start+dur). */
    void waitSlice(const Process &p, Wait cls, const char *reason,
                   SimTime start, SimTime dur);

    /** A process spun/yielded on @p lock for [start, start+dur). */
    void lockContend(const Process &p, std::string_view lock,
                     SimTime start, SimTime dur);

    /** @p lock was held for [start, start+dur) on machine @p m. */
    void lockHold(const Machine &m, std::string_view lock,
                  SimTime start, SimTime dur);

    /** A span completed at @p end; emits the timeline slice and the
     *  async call segment, and folds it into the aggregates. */
    void spanDone(const Process &p, const SpanCtx &span, SimTime end);

    /** Global instant marker (measurement window edges etc.). */
    void instant(std::string_view name, SimTime ts);

    // --- aggregates / introspection ---

    const std::map<std::uint64_t, CallStats> &
    calls() const
    {
        return calls_;
    }

    const std::map<std::string, WaitTotals> &
    machineTotals() const
    {
        return machineTotals_;
    }

    std::size_t eventCount() const { return events_.size(); }
    std::uint64_t dropped() const { return dropped_; }

    // --- export ---

    /** Write the full Chrome trace-event JSON document. */
    void writeJson(std::ostream &os) const;

    /** writeJson to @p path; false (with no partial file kept open) on
     *  I/O failure. */
    bool writeJsonFile(const std::string &path) const;

  private:
    struct Event
    {
        SimTime ts;
        SimTime dur;
        std::uint64_t id;
        std::uint32_t name;
        std::uint32_t args; // interned pre-rendered JSON; 0 = none
        std::int32_t pid;
        std::int32_t tid;
        char ph;
        char cat; // index into kCats
    };

    std::uint32_t intern(std::string_view s);
    void ensurePid(int pid, std::string_view name);
    void ensureTrack(int pid, int tid, std::string_view name);
    void push(const Event &ev);
    int pidOf(const Machine &m);
    int tidOf(const Process &p) const;

    Options opts_;
    std::vector<std::string> strings_;
    std::map<std::string, std::uint32_t, std::less<>> internIdx_;
    std::vector<Event> events_;
    std::uint64_t dropped_ = 0;
    std::map<int, std::string> pidNames_;
    std::map<std::pair<int, int>, std::string> trackNames_;
    std::map<std::uint64_t, CallStats> calls_;
    std::map<std::string, WaitTotals> machineTotals_;
};

/** Install (or, with nullptr, remove) the global recorder. The caller
 *  keeps ownership and must outlive the recording window. */
void setRecorder(Recorder *r);

namespace detail {
extern Recorder *g_recorder;
} // namespace detail

/** The installed recorder, or nullptr. */
inline Recorder *
recorder()
{
    return detail::g_recorder;
}

/** Hot-path guard: true iff a recorder is installed. */
inline bool
recording()
{
    return detail::g_recorder != nullptr;
}

} // namespace trace
} // namespace siprox::sim

#endif // SIPROX_SIM_TRACE_HH
