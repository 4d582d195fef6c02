/**
 * @file
 * Wall-clock perf-tracking harness for the proxy's hot paths.
 *
 * Unlike the figure benches (which report *simulated* throughput), this
 * binary measures the library's real cost on the host CPU: ns/op and
 * allocations/op for the SIP parse/serialize/forward micros and the
 * event queue (each timed kTrials times; min, median and max ns/op are
 * recorded, and the CI gate reads the min), plus wall-clock seconds,
 * simulated events and allocations/op for fixed fig3-style scenarios,
 * and the resident footprint of one simulated phone. Results land in
 * BENCH_hotpath.json so every PR's numbers are comparable — see
 * docs/performance.md.
 *
 * Allocations are counted by interposing global operator new/delete in
 * this binary only; the library itself is untouched.
 *
 * Modes:
 *   SIPROX_PERF_SMOKE=1          tiny iteration counts (CI smoke)
 *   SIPROX_PERF_METRICS_ONLY=1   emit the bare metrics object (for use
 *                                as a later run's baseline)
 *   SIPROX_PERF_BASELINE=<file>  embed that metrics object verbatim as
 *                                "baseline" in the output
 *   argv[1]                      output path (default BENCH_hotpath.json)
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/event_queue.hh"
#include "sip/builders.hh"
#include "sip/parser.hh"
#include "sip/transaction.hh"
#include "workload/scenario.hh"

// --- counting allocator ----------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_allocBytes{0};
} // namespace

static void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(n, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_allocBytes.fetch_add(n, std::memory_order_relaxed);
    void *p = std::aligned_alloc(static_cast<std::size_t>(a),
                                 (n + static_cast<std::size_t>(a) - 1)
                                     & ~(static_cast<std::size_t>(a) - 1));
    if (!p)
        throw std::bad_alloc();
    return p;
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return operator new(n, a);
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

namespace {

using namespace siprox;
using namespace siprox::sip;
using Clock = std::chrono::steady_clock;

bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v && *v && std::strcmp(v, "0") != 0;
}

/** Timed repetitions of each micro. A single shot is too noisy to
 *  gate on a shared host; the minimum of several is not. */
constexpr int kTrials = 5;

/** One micro's measured numbers. */
struct Micro
{
    const char *name;
    std::uint64_t iters = 0;
    /** ns/op over the kTrials repetitions. */
    double nsMin = 0;
    double nsMedian = 0;
    double nsMax = 0;
    double allocsPerOp = 0;
    double allocBytesPerOp = 0;
};

/**
 * Run @p body() @p iters times, kTrials times over, charging time and
 * allocations to the returned record. A short warmup primes caches and
 * lazy init. @p before_trial runs untimed ahead of each trial, for
 * micros whose fixture must start every trial in the same state.
 * Allocation counts are averaged over every trial (they are
 * deterministic, so each trial sees the same count).
 */
template <class F, class R>
Micro
measure(const char *name, std::uint64_t iters, F &&body, R &&before_trial)
{
    for (std::uint64_t i = 0; i < iters / 20 + 1; ++i)
        body();
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;
    std::array<double, kTrials> ns{};
    for (double &trial : ns) {
        before_trial();
        std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
        std::uint64_t b0 = g_allocBytes.load(std::memory_order_relaxed);
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < iters; ++i)
            body();
        auto t1 = Clock::now();
        allocs += g_allocs.load(std::memory_order_relaxed) - a0;
        alloc_bytes += g_allocBytes.load(std::memory_order_relaxed) - b0;
        trial = static_cast<double>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t1 - t0)
                        .count())
            / static_cast<double>(iters);
    }
    std::sort(ns.begin(), ns.end());
    const double ops = static_cast<double>(iters) * kTrials;
    Micro m;
    m.name = name;
    m.iters = iters;
    m.nsMin = ns.front();
    m.nsMedian = ns[kTrials / 2];
    m.nsMax = ns.back();
    m.allocsPerOp = static_cast<double>(allocs) / ops;
    m.allocBytesPerOp = static_cast<double>(alloc_bytes) / ops;
    return m;
}

template <class F>
Micro
measure(const char *name, std::uint64_t iters, F &&body)
{
    return measure(name, iters, std::forward<F>(body), [] {});
}

SipMessage
sampleInvite()
{
    RequestSpec spec;
    spec.method = Method::Invite;
    spec.requestUri = uriForAddr("bob", net::Addr{3, 5060});
    spec.from = uriForAddr("alice", net::Addr{1, 10000});
    spec.to = uriForAddr("bob", net::Addr{2, 10001});
    spec.fromTag = "tag-12345";
    spec.callId = "perf-call-id-123456@h1";
    spec.cseq = 42;
    spec.viaSentBy = uriForAddr("", net::Addr{1, 10000});
    spec.branch = "z9hG4bK-perf-branch";
    spec.contact = spec.from;
    return buildRequest(spec);
}

/** The per-forward mutation a proxy performs on a parsed request. */
std::string
forwardRewrite(SipMessage &&fwd)
{
    fwd.setMaxForwards(fwd.maxForwards().value_or(70) - 1);
    Via via;
    via.transport = "UDP";
    via.host = "h9";
    via.port = 5060;
    via.branch = "z9hG4bK-proxy-1";
    fwd.prependVia(via);
    return fwd.serialize();
}

/** Wall-clock numbers for one fixed scenario. */
struct SweepResult
{
    const char *name;
    double wallSecs = 0;
    std::uint64_t ops = 0;
    std::uint64_t events = 0;
    double allocsPerOp = 0;
};

SweepResult
runSweep(const char *name, core::Transport transport, int clients,
         int ops_per_conn, int calls_per_client, std::uint64_t seed,
         std::uint64_t cluster_aors = 0)
{
    workload::Scenario sc =
        workload::paperScenario(transport, clients, ops_per_conn);
    sc.callsPerClient = calls_per_client;
    sc.seed = seed;
    if (cluster_aors > 0) {
        // The cluster footprint rung: 4 instances behind the
        // dispatcher, each shard pre-seeded with population/4 AORs.
        // Wall time exercises the dispatcher relay + sharded lookup
        // path; peak RSS (gated by check_perf.py) catches a location
        // service that retains more per AOR than it should.
        sc.cluster.instances = 4;
        sc.cluster.policy = core::DispatchPolicy::HashAor;
        sc.cluster.aorPopulation = cluster_aors;
    }
    std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    auto t0 = Clock::now();
    workload::RunResult r = workload::runScenario(sc);
    auto t1 = Clock::now();
    std::uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
    SweepResult out;
    out.name = name;
    out.wallSecs = std::chrono::duration<double>(t1 - t0).count();
    out.ops = r.ops;
    out.events = r.simEvents;
    if (r.ops) {
        out.allocsPerOp =
            static_cast<double>(a1 - a0) / static_cast<double>(r.ops);
    }
    return out;
}

/**
 * Resident footprint per phone: two UDP fleets of different sizes,
 * each run in a forked child so neither inherits the other's heap
 * high-water mark; the growth of the children's peak RSS over the
 * phones added is the marginal cost of one phone (its frames, queues
 * and sockets plus its share of the proxy's per-user state), and the
 * growth of their coroutine-frame peak (mem.framePoolPeakBytes) is the
 * frames' part of it. Forked before anything else runs, so both
 * children start from the same small parent.
 */
struct Footprint
{
    int phones[2] = {0, 0};
    long peakRssKb[2] = {0, 0};
    std::uint64_t framePoolPeakBytes[2] = {0, 0};
    double kbPerPhone = 0;
    double frameKbPerPhone = 0;
};

/** Run one fleet of @p clients call pairs in a child; fills @p fp's
 *  slot @p i with the child's peak RSS and frame-pool peak. */
void
measureFleet(int clients, Footprint &fp, int i)
{
    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("pipe");
        std::exit(1);
    }
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        std::exit(1);
    }
    if (pid == 0) {
        close(fds[0]);
        workload::Scenario sc =
            workload::paperScenario(core::Transport::Udp, clients, 0);
        sc.callsPerClient = 1;
        sc.seed = 1;
        workload::RunResult r = workload::runScenario(sc);
        const bool sent = write(fds[1], &r.memFramePoolPeak,
                                sizeof r.memFramePoolPeak)
            == sizeof r.memFramePoolPeak;
        _exit(sent
                      && r.callsCompleted
                          == static_cast<std::uint64_t>(clients)
                  ? 0
                  : 1);
    }
    close(fds[1]);
    int status = 0;
    struct rusage ru;
    if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status)
        || WEXITSTATUS(status) != 0
        || read(fds[0], &fp.framePoolPeakBytes[i],
                sizeof fp.framePoolPeakBytes[i])
            != sizeof fp.framePoolPeakBytes[i]) {
        std::fprintf(stderr, "footprint child (%d clients) failed\n",
                     clients);
        std::exit(1);
    }
    close(fds[0]);
    fp.peakRssKb[i] = ru.ru_maxrss;
}

Footprint
measureFootprint(bool smoke)
{
    Footprint f;
    const int clients[2] = {smoke ? 100 : 500, smoke ? 300 : 2500};
    for (int i = 0; i < 2; ++i) {
        f.phones[i] = 2 * clients[i];
        measureFleet(clients[i], f, i);
    }
    const double added = f.phones[1] - f.phones[0];
    f.kbPerPhone =
        static_cast<double>(f.peakRssKb[1] - f.peakRssKb[0]) / added;
    f.frameKbPerPhone =
        (static_cast<double>(f.framePoolPeakBytes[1])
         - static_cast<double>(f.framePoolPeakBytes[0]))
        / 1024.0 / added;
    return f;
}

long
peakRssKb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

void
writeMetrics(std::FILE *f, const std::vector<Micro> &micros,
             const std::vector<SweepResult> &sweeps, const Footprint &fp)
{
    std::fprintf(f, "{\n  \"micros\": {\n");
    for (std::size_t i = 0; i < micros.size(); ++i) {
        const Micro &m = micros[i];
        std::fprintf(f,
                     "    \"%s\": {\"ns_per_op\": %.1f, "
                     "\"ns_per_op_min\": %.1f, \"ns_per_op_max\": %.1f, "
                     "\"trials\": %d, \"allocs_per_op\": %.2f, "
                     "\"alloc_bytes_per_op\": %.1f, \"iters\": %llu}%s\n",
                     m.name, m.nsMedian, m.nsMin, m.nsMax, kTrials,
                     m.allocsPerOp, m.allocBytesPerOp,
                     static_cast<unsigned long long>(m.iters),
                     i + 1 < micros.size() ? "," : "");
    }
    std::fprintf(f, "  },\n  \"sweeps\": {\n");
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        const SweepResult &s = sweeps[i];
        std::fprintf(f,
                     "    \"%s\": {\"wall_secs\": %.3f, \"ops\": %llu, "
                     "\"events\": %llu, \"events_per_wall_sec\": %.0f, "
                     "\"allocs_per_op\": %.1f}%s\n",
                     s.name, s.wallSecs,
                     static_cast<unsigned long long>(s.ops),
                     static_cast<unsigned long long>(s.events),
                     s.wallSecs > 0
                         ? static_cast<double>(s.events) / s.wallSecs
                         : 0.0,
                     s.allocsPerOp, i + 1 < sweeps.size() ? "," : "");
    }
    std::fprintf(f,
                 "  },\n  \"phone_footprint\": {\"phones\": [%d, %d], "
                 "\"peak_rss_kb\": [%ld, %ld], \"kb_per_phone\": %.2f, "
                 "\"frame_pool_peak_kb\": [%.1f, %.1f], "
                 "\"frame_kb_per_phone\": %.2f},\n",
                 fp.phones[0], fp.phones[1], fp.peakRssKb[0],
                 fp.peakRssKb[1], fp.kbPerPhone,
                 static_cast<double>(fp.framePoolPeakBytes[0]) / 1024.0,
                 static_cast<double>(fp.framePoolPeakBytes[1]) / 1024.0,
                 fp.frameKbPerPhone);
    std::fprintf(f, "  \"peak_rss_kb\": %ld\n}", peakRssKb());
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = envFlag("SIPROX_PERF_SMOKE");
    const std::uint64_t k = smoke ? 2000 : 100000;
    const Footprint footprint = measureFootprint(smoke);

    std::string wire = sampleInvite().serialize();
    SipMessage built = sampleInvite();

    std::vector<Micro> micros;
    micros.push_back(measure("parse_invite", 2 * k, [&] {
        auto r = parseMessage(wire);
        if (!r.ok)
            std::abort();
    }));
    micros.push_back(measure("serialize_invite", 4 * k, [&] {
        std::string s = built.serialize();
        if (s.empty())
            std::abort();
    }));
    // Copies share the original's arena, so every rewrite of a copy
    // grows built's arena; a fresh message per trial keeps the
    // retained bytes (and the harness's peak RSS) at one trial's worth.
    micros.push_back(measure(
        "forward_rewrite", 2 * k,
        [&] {
            std::string s = forwardRewrite(SipMessage(built));
            if (s.empty())
                std::abort();
        },
        [&] { built = sampleInvite(); }));
    // The acceptance-criteria micro: receive bytes, parse, rewrite as a
    // proxy would, re-serialize.
    micros.push_back(measure("parse_forward", 2 * k, [&] {
        auto r = parseMessage(wire);
        if (!r.ok)
            std::abort();
        std::string s = forwardRewrite(std::move(r.message));
        if (s.empty())
            std::abort();
    }));
    {
        std::string stream;
        for (int i = 0; i < 16; ++i)
            stream += wire;
        micros.push_back(measure("framer_512b_chunks", k / 4 + 1, [&] {
            StreamFramer framer;
            int messages = 0;
            for (std::size_t off = 0; off < stream.size(); off += 512) {
                framer.feed(std::string_view(stream).substr(off, 512));
                while (auto m = framer.next())
                    ++messages;
            }
            if (messages != 16)
                std::abort();
        }));
    }
    {
        // Schedule/run cycles with a 16-byte capture, like a timer.
        sim::EventQueue q;
        std::uint64_t fired = 0;
        sim::SimTime now = 0;
        sim::SimTime at = 0;
        micros.push_back(measure("event_schedule_run", 8 * k, [&] {
            std::uint64_t *p = &fired;
            q.schedule(++at, [p] { ++*p; });
            q.runNext(now);
        }));
        if (fired == 0)
            std::abort();
    }

    std::vector<SweepResult> sweeps;
    sweeps.push_back(runSweep("udp_100c", core::Transport::Udp, 100, 0,
                              smoke ? 5 : 40, 1));
    sweeps.push_back(runSweep("tcp_churn_50c", core::Transport::Tcp, 50,
                              50, smoke ? 5 : 30, 2));
    sweeps.push_back(runSweep("cluster_100k_aor_4i",
                              core::Transport::Udp, 100, 0,
                              smoke ? 5 : 20, 3,
                              smoke ? 10000 : 100000));

    const char *out_path =
        argc > 1 ? argv[1] : "BENCH_hotpath.json";
    if (envFlag("SIPROX_PERF_METRICS_ONLY")) {
        std::FILE *f = std::fopen(out_path, "w");
        if (!f) {
            std::perror("fopen");
            return 1;
        }
        writeMetrics(f, micros, sweeps, footprint);
        std::fprintf(f, "\n");
        std::fclose(f);
    } else {
        std::FILE *f = std::fopen(out_path, "w");
        if (!f) {
            std::perror("fopen");
            return 1;
        }
        std::fprintf(f, "{\n\"schema\": \"siprox-perf-v1\",\n");
        std::fprintf(f, "\"smoke\": %s,\n", smoke ? "true" : "false");
        if (const char *base = std::getenv("SIPROX_PERF_BASELINE");
            base && *base) {
            if (std::FILE *bf = std::fopen(base, "r")) {
                std::fprintf(f, "\"baseline\": ");
                char buf[4096];
                std::size_t n;
                while ((n = std::fread(buf, 1, sizeof buf, bf)) > 0)
                    std::fwrite(buf, 1, n, f);
                std::fclose(bf);
                // The baseline file ends in a newline; keep JSON tidy.
                std::fprintf(f, ",\n");
            }
        }
        std::fprintf(f, "\"current\": ");
        writeMetrics(f, micros, sweeps, footprint);
        std::fprintf(f, "\n}\n");
        std::fclose(f);
    }

    // Console summary.
    for (const Micro &m : micros) {
        std::fprintf(stderr,
                     "%-22s %9.1f ns/op (min %.1f, max %.1f)  "
                     "%6.2f allocs/op\n",
                     m.name, m.nsMedian, m.nsMin, m.nsMax,
                     m.allocsPerOp);
    }
    for (const SweepResult &s : sweeps) {
        std::fprintf(stderr,
                     "%-22s %8.3f wall-s  %8llu ops  %6.1f allocs/op\n",
                     s.name, s.wallSecs,
                     static_cast<unsigned long long>(s.ops),
                     s.allocsPerOp);
    }
    std::fprintf(stderr,
                 "phone footprint %.2f KB/phone, frames %.2f KB/phone "
                 "(%d -> %d phones)\n",
                 footprint.kbPerPhone, footprint.frameKbPerPhone,
                 footprint.phones[0], footprint.phones[1]);
    std::fprintf(stderr, "peak RSS %ld KB -> %s\n", peakRssKb(),
                 out_path);
    return 0;
}
