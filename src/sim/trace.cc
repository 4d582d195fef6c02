#include "sim/trace.hh"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "sim/json.hh"
#include "sim/machine.hh"
#include "sim/process.hh"

namespace siprox::sim::trace {

// ---------------------------------------------------------------------------
// Legacy line-oriented sink
// ---------------------------------------------------------------------------

namespace {

Sink &
sinkSlot()
{
    static Sink sink;
    return sink;
}

} // namespace

void
setSink(Sink sink)
{
    sinkSlot() = std::move(sink);
}

bool
enabled()
{
    return static_cast<bool>(sinkSlot());
}

void
log(SimTime now, std::string_view category, std::string_view msg)
{
    if (auto &sink = sinkSlot())
        sink(now, category, msg);
}

Sink
stdoutSink()
{
    return [](SimTime now, std::string_view cat, std::string_view msg) {
        std::printf("[%12.6f] %-12.*s %.*s\n", toSecs(now),
                    static_cast<int>(cat.size()), cat.data(),
                    static_cast<int>(msg.size()), msg.data());
    };
}

// ---------------------------------------------------------------------------
// Wait-state attribution
// ---------------------------------------------------------------------------

std::string_view
waitName(Wait w)
{
    switch (w) {
      case Wait::Cpu:
        return "cpu";
      case Wait::RunQueue:
        return "runqueue";
      case Wait::LockSpin:
        return "lockspin";
      case Wait::LockBlock:
        return "lockblock";
      case Wait::Ipc:
        return "ipc";
      case Wait::Socket:
        return "socket";
      case Wait::Sleep:
        return "sleep";
      case Wait::Throttled:
        return "throttled";
    }
    return "?";
}

SimTime
SpanCtx::waitSum() const
{
    SimTime sum = 0;
    for (SimTime w : wait)
        sum += w;
    return sum;
}

std::uint64_t
traceIdFor(std::string_view call_id)
{
    // FNV-1a 64: stable across runs, platforms, and library versions.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : call_id) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    // Avoid the reserved "no id" value for the (vanishingly unlikely)
    // Call-ID that hashes to zero.
    return h ? h : 1;
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

namespace detail {
Recorder *g_recorder = nullptr;
} // namespace detail

void
setRecorder(Recorder *r)
{
    detail::g_recorder = r;
}

namespace {

/** Trace category table; Event::cat indexes into it. */
constexpr std::string_view kCats[] = {"sched", "wait", "lock",
                                      "span",  "call", "mark"};
constexpr char kCatSched = 0;
constexpr char kCatWait = 1;
constexpr char kCatLock = 2;
constexpr char kCatSpan = 3;
constexpr char kCatCall = 4;
constexpr char kCatMark = 5;

/** Synthetic trace-process hosting the per-call async tracks. */
constexpr int kCallsPid = 0;

using json::appendEscaped;

void
appendMicros(std::string &out, SimTime ns)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld.%03lld",
                  static_cast<long long>(ns / 1000),
                  static_cast<long long>(ns % 1000));
    out += buf;
}

} // namespace

Recorder::Recorder() : Recorder(Options{}) {}

Recorder::Recorder(Options opts) : opts_(opts)
{
    strings_.emplace_back(); // index 0: "no string"
    pidNames_[kCallsPid] = "calls";
    trackNames_[{kCallsPid, 0}] = "sip calls";
}

std::uint32_t
Recorder::intern(std::string_view s)
{
    auto it = internIdx_.find(s);
    if (it != internIdx_.end())
        return it->second;
    auto idx = static_cast<std::uint32_t>(strings_.size());
    strings_.emplace_back(s);
    internIdx_.emplace(std::string(s), idx);
    return idx;
}

void
Recorder::ensurePid(int pid, std::string_view name)
{
    pidNames_.try_emplace(pid, name);
}

void
Recorder::ensureTrack(int pid, int tid, std::string_view name)
{
    trackNames_.try_emplace({pid, tid}, name);
}

void
Recorder::push(const Event &ev)
{
    if (events_.size() >= opts_.maxEvents) {
        ++dropped_;
        return;
    }
    events_.push_back(ev);
}

int
Recorder::pidOf(const Machine &m)
{
    int pid = m.id() + 1;
    ensurePid(pid, m.name());
    return pid;
}

int
Recorder::tidOf(const Process &p) const
{
    // Cores are tids 1..N; processes live above them.
    return 100 + p.pid();
}

void
Recorder::runSlice(const Machine &m, int core, const Process &p,
                   SimTime start, SimTime dur, SimTime ctx_part)
{
    int pid = pidOf(m);
    int tid = 1 + core;
    ensureTrack(pid, tid, "core" + std::to_string(core));
    push({start, dur, 0, intern(p.name()), 0, pid, tid, 'X',
          kCatSched});
    if (ctx_part > 0) {
        push({start, ctx_part, 0, intern("ctx switch"), 0, pid, tid,
              'X', kCatSched});
    }
}

void
Recorder::runqueueSlice(const Process &p, SimTime start, SimTime dur)
{
    int pid = pidOf(p.machine());
    int tid = tidOf(p);
    ensureTrack(pid, tid, p.name());
    push({start, dur, 0, intern("runqueue"), 0, pid, tid, 'X',
          kCatWait});
}

void
Recorder::waitSlice(const Process &p, Wait cls, const char *reason,
                    SimTime start, SimTime dur)
{
    int pid = pidOf(p.machine());
    int tid = tidOf(p);
    ensureTrack(pid, tid, p.name());
    std::string args = "{\"class\":\"";
    args += waitName(cls);
    args += "\"}";
    push({start, dur, 0, intern(reason), intern(args), pid, tid, 'X',
          kCatWait});
}

void
Recorder::lockContend(const Process &p, std::string_view lock,
                      SimTime start, SimTime dur)
{
    int pid = pidOf(p.machine());
    int tid = tidOf(p);
    ensureTrack(pid, tid, p.name());
    std::string name = "contend:";
    name += lock;
    push({start, dur, 0, intern(name), 0, pid, tid, 'X', kCatLock});
}

void
Recorder::lockHold(const Machine &m, std::string_view lock,
                   SimTime start, SimTime dur)
{
    int pid = pidOf(m);
    std::string track = "lock:";
    track += lock;
    // One track per lock name; tids above the process range.
    int tid = 100000 + static_cast<int>(intern(track));
    ensureTrack(pid, tid, track);
    push({start, dur, 0, intern(lock), 0, pid, tid, 'X', kCatLock});
}

void
Recorder::spanDone(const Process &p, const SpanCtx &span, SimTime end)
{
    int pid = pidOf(p.machine());
    int tid = tidOf(p);
    ensureTrack(pid, tid, p.name());
    SimTime dur = end - span.begin;
    std::string_view label =
        span.label.empty() ? std::string_view("span") : span.label;

    std::string args = "{\"callId\":\"";
    appendEscaped(args, span.callId);
    args += "\"";
    for (std::size_t i = 0; i < kWaitCount; ++i) {
        if (span.wait[i] == 0)
            continue;
        args += ",\"";
        args += waitName(static_cast<Wait>(i));
        args += "_us\":";
        appendMicros(args, span.wait[i]);
    }
    if (span.batchDepth > 0) {
        args += ",\"batched\":";
        args += std::to_string(span.batchDepth);
    }
    args += "}";
    push({span.begin, dur, span.traceId, intern(label), intern(args),
          pid, tid, 'X', kCatSpan});

    if (span.traceId != 0) {
        // Async segment: one per-call track across all machines.
        std::uint32_t name = intern(label);
        push({span.begin, 0, span.traceId, name, 0, kCallsPid, 0, 'b',
              kCatCall});
        push({end, 0, span.traceId, name, 0, kCallsPid, 0, 'e',
              kCatCall});

        CallStats &cs = calls_[span.traceId];
        cs.total += dur;
        ++cs.spans;
        for (std::size_t i = 0; i < kWaitCount; ++i)
            cs.wait[i] += span.wait[i];
    }

    WaitTotals &mt = machineTotals_[p.machine().name()];
    mt.total += dur;
    ++mt.spans;
    for (std::size_t i = 0; i < kWaitCount; ++i)
        mt.wait[i] += span.wait[i];
}

void
Recorder::instant(std::string_view name, SimTime ts)
{
    push({ts, 0, 0, intern(name), 0, kCallsPid, 0, 'i', kCatMark});
}

void
Recorder::writeJson(std::ostream &os) const
{
    std::string out;
    out.reserve(1 << 16);
    out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
           "\"droppedEvents\":";
    out += std::to_string(dropped_);
    out += "},\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            out += ",\n";
        first = false;
    };

    for (const auto &[pid, name] : pidNames_) {
        sep();
        out += "{\"ph\":\"M\",\"pid\":";
        out += std::to_string(pid);
        out += ",\"tid\":0,\"name\":\"process_name\",\"args\":{"
               "\"name\":\"";
        appendEscaped(out, name);
        out += "\"}}";
    }
    for (const auto &[key, name] : trackNames_) {
        sep();
        out += "{\"ph\":\"M\",\"pid\":";
        out += std::to_string(key.first);
        out += ",\"tid\":";
        out += std::to_string(key.second);
        out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
        appendEscaped(out, name);
        out += "\"}}";
    }

    char buf[64];
    for (const Event &ev : events_) {
        sep();
        out += "{\"ph\":\"";
        out += ev.ph;
        out += "\",\"pid\":";
        out += std::to_string(ev.pid);
        out += ",\"tid\":";
        out += std::to_string(ev.tid);
        out += ",\"ts\":";
        appendMicros(out, ev.ts);
        if (ev.ph == 'X') {
            out += ",\"dur\":";
            appendMicros(out, ev.dur);
        }
        if (ev.ph == 'b' || ev.ph == 'e') {
            std::snprintf(buf, sizeof buf, ",\"id\":\"0x%llx\"",
                          static_cast<unsigned long long>(ev.id));
            out += buf;
        }
        if (ev.ph == 'i')
            out += ",\"s\":\"g\"";
        out += ",\"cat\":\"";
        out += kCats[static_cast<std::size_t>(ev.cat)];
        out += "\",\"name\":\"";
        appendEscaped(out, strings_[ev.name]);
        out += "\"";
        if (ev.args != 0) {
            out += ",\"args\":";
            out += strings_[ev.args];
        }
        out += "}";
        if (out.size() >= (1u << 16)) {
            os << out;
            out.clear();
        }
    }
    out += "]}\n";
    os << out;
}

bool
Recorder::writeJsonFile(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return false;
    writeJson(os);
    os.flush();
    return os.good();
}

} // namespace siprox::sim::trace
