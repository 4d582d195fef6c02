/**
 * @file
 * Outside-in layer tracer. The traced binary wraps, at link time, the
 * out-of-line functions through which one layer calls another
 * (tracer_on.cc lists them). Each wrapped call is a span: function,
 * start, end, and the span that called it. Spans are kept in memory
 * and written out when the recording ends. The untraced binary links
 * tracer_off.cc, whose recording is empty.
 *
 * A span covers a call only when caller and callee sit in different
 * object files: calls inside one source file stay with the caller.
 * Coroutine entry points return their Task at the first suspend (Tasks
 * start lazily), so their spans time only frame creation; the body
 * runs later under the event loop and counts as sim self time.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

/** Layers, named after the simulator's source modules. */
enum Layer : int
{
    kSim,
    kNet,
    kSip,
    kCore,
    kPhone,
    kStats,
    kWorkload,
    kLayers
};

inline constexpr const char *kLayerNames[kLayers] = {
    "sim", "net", "sip", "core", "phone", "stats", "workload"};

/** One wrapped function's totals over a recording. */
struct FnTotals
{
    const char *layer = "";
    const char *name = "";
    bool coroutine = false;
    std::uint64_t calls = 0;
    std::uint64_t inclusiveNs = 0;
    std::uint64_t selfNs = 0;
};

/** Totals of one recording. */
struct Report
{
    /** Host time of the root spans (the runScenario calls). */
    std::uint64_t totalNs = 0;
    /** Span duration minus the part its child spans cover, summed per
     *  layer. Sums exactly to totalNs. */
    std::uint64_t layerSelfNs[kLayers] = {};
    /** Allocations made while a span of the layer was innermost. */
    std::uint64_t layerAllocs[kLayers] = {};
    /** Allocations made inside the root spans. */
    std::uint64_t allocs = 0;
    std::uint64_t allocBytes = 0;
    /** Payload bytes handed to datagram sockets for delivery. */
    std::uint64_t datagramBytes = 0;
    std::uint64_t spans = 0;
    /** Spans kept for write-out (the buffer is bounded). */
    std::uint64_t spansKept = 0;
    std::vector<FnTotals> fns;

    /** Totals of the wrapped function named @p name (zero if none). */
    FnTotals
    fn(const std::string &name) const
    {
        for (const FnTotals &f : fns) {
            if (name == f.name)
                return f;
        }
        return FnTotals{};
    }

    /** Add a later recording's totals; spansKept becomes its count. */
    Report &
    operator+=(const Report &o)
    {
        totalNs += o.totalNs;
        for (int l = 0; l < kLayers; ++l) {
            layerSelfNs[l] += o.layerSelfNs[l];
            layerAllocs[l] += o.layerAllocs[l];
        }
        allocs += o.allocs;
        allocBytes += o.allocBytes;
        datagramBytes += o.datagramBytes;
        spans += o.spans;
        spansKept = o.spansKept;
        if (fns.empty()) {
            fns = o.fns;
            return *this;
        }
        for (std::size_t i = 0; i < fns.size() && i < o.fns.size(); ++i) {
            fns[i].calls += o.fns[i].calls;
            fns[i].inclusiveNs += o.fns[i].inclusiveNs;
            fns[i].selfNs += o.fns[i].selfNs;
        }
        return *this;
    }
};

/** True when this binary was linked with the wrappers. */
bool compiledIn();

/** Wrapped functions whose symbol no longer exists in the simulator
 *  (renamed, inlined or removed), so they produce no spans. */
std::vector<std::string> unresolved();

/** Reset the totals and start recording spans and allocations. */
void start();

/** Stop recording and return its totals. */
Report stop();

/** Write the kept spans of the last recording as CSV
 *  (index,parent,layer,function,start_ns,end_ns). */
bool writeSpans(const std::string &path);

} // namespace perfbench::trace

#endif // PERFBENCH_TRACER_HH
