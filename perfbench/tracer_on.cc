/**
 * @file
 * Traced build: link-time wrappers around each layer's out-of-line
 * entry points, the span recorder, and a counting operator new.
 *
 * Every mangled siprox symbol named in this file is passed to the
 * linker as --wrap=<symbol> (CMakeLists.txt reads them from here), so
 * calls into it from other object files land in the __wrap_ function
 * below, which opens a span and calls __real_<symbol>. The __real_
 * references are weak and the layer libraries are linked whole, so a
 * symbol that a later change renames or inlines simply stops producing
 * spans; it is reported as unresolved instead of breaking the build.
 *
 * The simulator runs a scenario on one thread, and the benchmark runs
 * one scenario at a time, so the recorder's state is plain globals.
 */

#include "tracer.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hh"
#include "core/location.hh"
#include "core/overload.hh"
#include "net/datagram.hh"
#include "net/network.hh"
#include "net/tcp.hh"
#include "phone/phone.hh"
#include "sim/machine.hh"
#include "sim/profiler.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sip/builders.hh"
#include "sip/parser.hh"
#include "sip/transaction.hh"
#include "stats/histogram.hh"
#include "stats/timeseries.hh"
#include "workload/scenario.hh"

using namespace siprox;

// X(id, layer, coroutine, name, return type, symbol, (params), (args))
// Coroutine entry points (sim::Task) start lazily: their spans time
// only the frame creation, never the body.
#define PB_FUNCTIONS(X)                                                      \
    X(runScenario, kWorkload, false, "workload::runScenario",               \
      workload::RunResult, _ZN6siprox8workload11runScenarioERKNS0_8ScenarioE, \
      (const workload::Scenario &a), (a))                                   \
    X(simRun, kSim, false, "sim::Simulation::run", void,                    \
      _ZN6siprox3sim10Simulation3runEv, (sim::Simulation * s), (s))         \
    X(simRunUntil, kSim, false, "sim::Simulation::runUntil", void,          \
      _ZN6siprox3sim10Simulation8runUntilEl,                                \
      (sim::Simulation * s, sim::SimTime t), (s, t))                        \
    X(costCenterId, kSim, false, "sim::CostCenters::id",                    \
      sim::CostCenterId,                                                    \
      _ZN6siprox3sim11CostCenters2idESt17basic_string_viewIcSt11char_traitsIcEE, \
      (std::string_view n), (n))                                            \
    X(parseMessage, kSip, false, "sip::parseMessage", sip::ParseResult,     \
      _ZN6siprox3sip12parseMessageESt17basic_string_viewIcSt11char_traitsIcEE, \
      (std::string_view t), (t))                                            \
    X(serialize, kSip, false, "sip::SipMessage::serialize", std::string,    \
      _ZNK6siprox3sip10SipMessage9serializeB5cxx11Ev,                       \
      (const sip::SipMessage *m), (m))                                      \
    X(framerNext, kSip, false, "sip::StreamFramer::next",                   \
      std::optional<std::string>,                                           \
      _ZN6siprox3sip12StreamFramer4nextB5cxx11Ev, (sip::StreamFramer * f),  \
      (f))                                                                  \
    X(buildRequest, kSip, false, "sip::buildRequest", sip::SipMessage,      \
      _ZN6siprox3sip12buildRequestERKNS0_11RequestSpecE,                    \
      (const sip::RequestSpec &s), (s))                                     \
    X(transactionKey, kSip, false, "sip::transactionKey",                   \
      std::optional<sip::TransactionKey>,                                   \
      _ZN6siprox3sip14transactionKeyERKNS0_10SipMessageE,                   \
      (const sip::SipMessage &m), (m))                                      \
    X(sendTo, kNet, true, "net::DatagramSocket::sendTo", sim::Task,         \
      _ZN6siprox3net14DatagramSocket6sendToERNS_3sim7ProcessENS0_4AddrENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE, \
      (net::DatagramSocket * s, sim::Process &p, net::Addr a,               \
       std::string b),                                                      \
      (s, p, a, std::move(b)))                                              \
    X(recvFrom, kNet, true, "net::DatagramSocket::recvFrom", sim::Task,     \
      _ZN6siprox3net14DatagramSocket8recvFromERNS_3sim7ProcessERNS0_8DatagramE, \
      (net::DatagramSocket * s, sim::Process &p, net::Datagram &d),         \
      (s, p, d))                                                            \
    X(tryRecvFrom, kNet, false, "net::DatagramSocket::tryRecvFrom", bool,   \
      _ZN6siprox3net14DatagramSocket11tryRecvFromERNS0_8DatagramE,          \
      (net::DatagramSocket * s, net::Datagram &d), (s, d))                  \
    X(tcpConnect, kNet, true, "net::Host::tcpConnect", sim::Task,           \
      _ZN6siprox3net4Host10tcpConnectERNS_3sim7ProcessENS0_4AddrERNS0_7TcpConnEt, \
      (net::Host * h, sim::Process &p, net::Addr a, net::TcpConn &c,        \
       std::uint16_t port),                                                 \
      (h, p, a, c, port))                                                   \
    X(tcpAccept, kNet, true, "net::TcpListener::accept", sim::Task,         \
      _ZN6siprox3net11TcpListener6acceptERNS_3sim7ProcessERNS0_7TcpConnE,   \
      (net::TcpListener * l, sim::Process &p, net::TcpConn &c), (l, p, c))  \
    X(tcpTryAccept, kNet, false, "net::TcpListener::tryAccept", bool,       \
      _ZN6siprox3net11TcpListener9tryAcceptERNS0_7TcpConnE,                 \
      (net::TcpListener * l, net::TcpConn &c), (l, c))                      \
    X(tcpSend, kNet, true, "net::TcpConn::send", sim::Task,                 \
      _ZNK6siprox3net7TcpConn4sendERNS_3sim7ProcessENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE, \
      (const net::TcpConn *c, sim::Process &p, std::string d),              \
      (c, p, std::move(d)))                                                 \
    X(tcpRecv, kNet, true, "net::TcpConn::recv", sim::Task,                 \
      _ZNK6siprox3net7TcpConn4recvERNS_3sim7ProcessERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEm, \
      (const net::TcpConn *c, sim::Process &p, std::string &o,              \
       std::size_t m),                                                      \
      (c, p, o, m))                                                         \
    X(handleMessage, kCore, true, "core::Engine::handleMessage", sim::Task, \
      _ZN6siprox4core6Engine13handleMessageERNS_3sim7ProcessENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS0_9MsgSourceERSt6vectorINS0_10SendActionESaISD_EE, \
      (core::Engine * e, sim::Process &p, std::string raw,                  \
       core::MsgSource src, std::vector<core::SendAction> &out),            \
      (e, p, std::move(raw), src, out))                                     \
    X(admitRequest, kCore, false, "core::OverloadController::admitRequest", \
      core::OverloadController::Admission,                                  \
      _ZN6siprox4core18OverloadController12admitRequestEl,                 \
      (core::OverloadController * o, sim::SimTime t), (o, t))               \
    X(ringOwner, kCore, false, "core::HashRing::owner", int,                \
      _ZNK6siprox4core8HashRing5ownerESt17basic_string_viewIcSt11char_traitsIcEE, \
      (const core::HashRing *r, std::string_view k), (r, k))                \
    X(phoneCtor, kPhone, false, "phone::Phone::Phone", void,                \
      _ZN6siprox5phone5PhoneC1ERNS_3sim7MachineERNS_3net4HostENS0_11PhoneConfigE, \
      (phone::Phone * ph, sim::Machine &m, net::Host &h,                    \
       phone::PhoneConfig c),                                               \
      (ph, m, h, std::move(c)))                                             \
    X(startCaller, kPhone, false, "phone::Phone::startCaller", void,        \
      _ZN6siprox5phone5Phone11startCallerEiNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPNS_3sim5LatchESA_SA_PKb, \
      (phone::Phone * ph, int n, std::string u, sim::Latch *a,              \
       sim::Latch *b, sim::Latch *c, const bool *stop),                     \
      (ph, n, std::move(u), a, b, c, stop))                                 \
    X(startCallee, kPhone, false, "phone::Phone::startCallee", void,        \
      _ZN6siprox5phone5Phone11startCalleeEiPNS_3sim5LatchES4_,              \
      (phone::Phone * ph, int n, sim::Latch *a, sim::Latch *b),             \
      (ph, n, a, b))                                                        \
    X(opDone, kPhone, false, "phone::Phone::opDone", void,                  \
      _ZN6siprox5phone5Phone6opDoneEl, (phone::Phone * ph, sim::SimTime t), \
      (ph, t))                                                              \
    X(histBucket, kStats, false, "stats::LatencyHistogram::bucketFor", int, \
      _ZN6siprox5stats16LatencyHistogram9bucketForEl, (sim::SimTime v),     \
      (v))                                                                  \
    X(histPercentile, kStats, false,                                        \
      "stats::LatencyHistogram::percentile", sim::SimTime,                  \
      _ZNK6siprox5stats16LatencyHistogram10percentileEd,                    \
      (const stats::LatencyHistogram *h, double q), (h, q))                 \
    X(seriesCounter, kStats, false, "stats::Series::counter", void,         \
      _ZN6siprox5stats6Series7counterESt17basic_string_viewIcSt11char_traitsIcEEm, \
      (stats::Series * s, std::string_view n, std::uint64_t v), (s, n, v))  \
    X(seriesGauge, kStats, false, "stats::Series::gauge", void,             \
      _ZN6siprox5stats6Series5gaugeESt17basic_string_viewIcSt11char_traitsIcEEd, \
      (stats::Series * s, std::string_view n, double v), (s, n, v))         \
    X(seriesBegin, kStats, false, "stats::Series::beginWindow", void,       \
      _ZN6siprox5stats6Series11beginWindowEl,                               \
      (stats::Series * s, sim::SimTime t), (s, t))                          \
    X(seriesFinish, kStats, false, "stats::Series::finish", void,           \
      _ZN6siprox5stats6Series6finishEl, (stats::Series * s, sim::SimTime t), \
      (s, t))

namespace perfbench::trace {
namespace {

enum Fn : std::uint32_t
{
#define PB_ENUM(id, ...) k_##id,
    PB_FUNCTIONS(PB_ENUM)
#undef PB_ENUM
    k_enqueueDelivery,
    kFns
};

struct FnInfo
{
    Layer layer;
    bool coroutine;
    const char *name;
};

constexpr FnInfo kFnInfo[kFns] = {
#define PB_INFO(id, layer, coro, name, ...) {layer, coro, name},
    PB_FUNCTIONS(PB_INFO)
#undef PB_INFO
    {kNet, false, "net::DatagramSocket::enqueueDelivery"},
};

constexpr std::uint32_t kNone = 0xffffffffu;
constexpr int kMaxDepth = 1024;
/** Spans kept for write-out per recording (24 B each). */
constexpr std::size_t kKeepSpans = std::size_t{1} << 18;

struct SpanRec
{
    std::uint32_t fn;
    std::uint32_t parent;
    std::uint64_t startNs;
    std::uint64_t endNs;
};

struct Frame
{
    std::uint32_t fn;
    std::uint32_t kept;
    std::uint64_t startNs;
    std::uint64_t childNs;
};

struct Accum
{
    std::uint64_t calls = 0;
    std::uint64_t inclusiveNs = 0;
    std::uint64_t selfNs = 0;
};

struct Recorder
{
    bool on = false;
    std::uint64_t originNs = 0;
    int depth = 0;
    Frame stack[kMaxDepth];
    std::vector<SpanRec> kept;
    Accum fns[kFns];
    Report rep;
};

Recorder g;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** RAII span around one wrapped call; inert while not recording. */
class Span
{
  public:
    explicit Span(Fn fn)
    {
        if (!g.on)
            return;
        if (g.depth == kMaxDepth) {
            std::fprintf(stderr, "perfbench: span stack overflow\n");
            std::abort();
        }
        active_ = true;
        Frame &f = g.stack[g.depth];
        f.fn = fn;
        f.childNs = 0;
        f.kept = kNone;
        if (g.kept.size() < g.kept.capacity()) {
            f.kept = static_cast<std::uint32_t>(g.kept.size());
            std::uint32_t parent =
                g.depth > 0 ? g.stack[g.depth - 1].kept : kNone;
            g.kept.push_back(SpanRec{fn, parent, 0, 0});
        }
        ++g.depth;
        f.startNs = nowNs();
    }

    ~Span()
    {
        if (!active_)
            return;
        const std::uint64_t end = nowNs();
        const Frame &f = g.stack[--g.depth];
        const std::uint64_t dur = end - f.startNs;
        const std::uint64_t self = dur - f.childNs;
        Accum &a = g.fns[f.fn];
        ++a.calls;
        a.inclusiveNs += dur;
        a.selfNs += self;
        g.rep.layerSelfNs[kFnInfo[f.fn].layer] += self;
        ++g.rep.spans;
        if (g.depth > 0)
            g.stack[g.depth - 1].childNs += dur;
        else
            g.rep.totalNs += dur;
        if (f.kept != kNone) {
            g.kept[f.kept].startNs = f.startNs - g.originNs;
            g.kept[f.kept].endNs = end - g.originNs;
        }
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool active_ = false;
};

/** Count an allocation made inside a recorded span. */
void
countAlloc(std::size_t n)
{
    if (!g.on || g.depth == 0)
        return;
    ++g.rep.allocs;
    g.rep.allocBytes += n;
    ++g.rep.layerAllocs[kFnInfo[g.stack[g.depth - 1].fn].layer];
}

} // namespace

// --- the wrappers --------------------------------------------------------

namespace wrap {

#define PB_WRAP(id, layer, coro, name, Ret, sym, params, args)              \
    Ret id##_real params __asm__("__real_" #sym) __attribute__((weak));      \
    Ret id##_wrap params __asm__("__wrap_" #sym);                           \
    Ret id##_wrap params                                                    \
    {                                                                       \
        Span span(k_##id);                                                  \
        return id##_real args;                                              \
    }
PB_FUNCTIONS(PB_WRAP)
#undef PB_WRAP

// Also counts the payload bytes delivered to datagram sockets.
bool enqueueDelivery_real(net::DatagramSocket *s, net::Datagram d) __asm__(
    "__real__ZN6siprox3net14DatagramSocket15enqueueDeliveryENS0_8DatagramE")
    __attribute__((weak));
bool enqueueDelivery_wrap(net::DatagramSocket *s, net::Datagram d) __asm__(
    "__wrap__ZN6siprox3net14DatagramSocket15enqueueDeliveryENS0_8DatagramE");
bool
enqueueDelivery_wrap(net::DatagramSocket *s, net::Datagram d)
{
    Span span(k_enqueueDelivery);
    if (g.on)
        g.rep.datagramBytes += d.payload.size();
    return enqueueDelivery_real(s, std::move(d));
}

} // namespace wrap

// --- public interface ----------------------------------------------------

bool
compiledIn()
{
    return true;
}

std::vector<std::string>
unresolved()
{
    // A weak __real_ reference is null when its symbol was not linked.
    static const void *const kReal[kFns] = {
#define PB_REAL(id, ...) reinterpret_cast<const void *>(&wrap::id##_real),
        PB_FUNCTIONS(PB_REAL)
#undef PB_REAL
        reinterpret_cast<const void *>(&wrap::enqueueDelivery_real),
    };
    std::vector<std::string> out;
    for (std::uint32_t f = 0; f < kFns; ++f) {
        if (kReal[f] == nullptr)
            out.emplace_back(kFnInfo[f].name);
    }
    return out;
}

void
start()
{
    g.kept.clear();
    g.kept.reserve(kKeepSpans);
    for (Accum &a : g.fns)
        a = Accum{};
    g.rep = Report{};
    g.depth = 0;
    g.originNs = nowNs();
    g.on = true;
}

Report
stop()
{
    g.on = false;
    Report r = g.rep;
    r.spansKept = g.kept.size();
    for (std::uint32_t f = 0; f < kFns; ++f) {
        FnTotals t;
        t.layer = kLayerNames[kFnInfo[f].layer];
        t.name = kFnInfo[f].name;
        t.coroutine = kFnInfo[f].coroutine;
        t.calls = g.fns[f].calls;
        t.inclusiveNs = g.fns[f].inclusiveNs;
        t.selfNs = g.fns[f].selfNs;
        r.fns.push_back(t);
    }
    return r;
}

bool
writeSpans(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "index,parent,layer,function,start_ns,end_ns\n");
    for (std::size_t i = 0; i < g.kept.size(); ++i) {
        const SpanRec &s = g.kept[i];
        if (s.parent == kNone) {
            std::fprintf(f, "%zu,,", i);
        } else {
            std::fprintf(f, "%zu,%u,", i, s.parent);
        }
        std::fprintf(f, "%s,%s,%llu,%llu\n", kLayerNames[kFnInfo[s.fn].layer],
                     kFnInfo[s.fn].name,
                     static_cast<unsigned long long>(s.startNs),
                     static_cast<unsigned long long>(s.endNs));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench::trace

// --- counting allocator ----------------------------------------------------

namespace {

void *
countedAlloc(std::size_t n)
{
    perfbench::trace::countAlloc(n);
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    perfbench::trace::countAlloc(n);
    const auto a = static_cast<std::size_t>(al);
    void *p = std::aligned_alloc(a, (n + a - 1) & ~(a - 1));
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
