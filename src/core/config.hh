/**
 * @file
 * Proxy configuration: transport, architecture, worker counts, and the
 * §4.3/§5 knobs (supervisor priority, idle timeout, fd cache, idle
 * management strategy, event-driven IPC).
 */

#ifndef SIPROX_CORE_CONFIG_HH
#define SIPROX_CORE_CONFIG_HH

#include <cstdint>
#include <vector>

#include "core/cost_model.hh"
#include "net/addr.hh"
#include "sim/time.hh"

namespace siprox::core {

/** Network transport the proxy speaks to phones. */
enum class Transport
{
    Udp,
    Tcp,
    Sctp,
    /** TLS over TCP (RFC 3261 sips, port 5061): TCP's byte stream
     *  plus a simulated handshake, session resumption, and per-record
     *  crypto cost. */
    Tls,
    /** SST/QUIC-style structured streams: lightweight per-call streams
     *  multiplexed over a datagram substrate — message-oriented at the
     *  API like UDP/SCTP, ordered within each stream, with cheap
     *  stream setup/teardown instead of per-connection state. */
    Sst,
};

const char *transportName(Transport t);

/** True for byte-stream transports carried over per-connection
 *  handles (TCP and TLS); datagram-substrate transports are false. */
constexpr bool
isStreamTransport(Transport t)
{
    return t == Transport::Tcp || t == Transport::Tls;
}

/**
 * Server architecture: how sockets, processes, and connection
 * ownership are arranged (independent of the wire transport, though
 * not every pairing is meaningful — see archSupportError()).
 */
enum class ArchKind
{
    /** Transport-implied, as OpenSER hard-wires it: TCP gets the
     *  supervisor/worker design, datagram transports the symmetric
     *  workers. The default, so existing configs keep their exact
     *  pre-refactor behaviour. */
    Auto,
    /** §3.1 / Figure 1: one supervisor accepting, assigning, and
     *  answering blocking fd requests over IPC; N workers owning
     *  connections. TCP only. */
    SupervisorWorker,
    /** §3.2 / Figure 2: N identical workers all receiving from one
     *  shared socket; kernel does the demultiplexing. Datagram
     *  transports only. */
    SymmetricWorker,
    /** The modern redesign the paper's analysis points at: one
     *  process per core running a readiness loop, non-blocking
     *  accept/read, a shared descriptor table instead of fd-passing
     *  IPC, and per-core priority-queue idle management. Works over
     *  every transport. */
    EventDriven,
};

const char *archKindName(ArchKind k);

/** Resolve Auto to the transport-implied concrete architecture. */
ArchKind resolveArchKind(ArchKind k, Transport t);

/** nullptr if @p k can serve @p t, else a static reason string. */
const char *archSupportError(ArchKind k, Transport t);

/** §6: process-per-worker vs threads sharing one address space. */
enum class ConcurrencyModel
{
    Process,
    Thread,
};

/** Idle TCP connection management strategy (§5.2 vs §5.3). */
enum class IdleStrategy
{
    /** Walk every connection object under the hash lock (baseline). */
    LinearScan,
    /** Timeout-ordered priority queues (the paper's fix). */
    PriorityQueue,
};

/** Overload-control policy (beyond-saturation behaviour). */
enum class OverloadPolicy
{
    /** Accept everything; the congestion-collapse baseline. */
    None,
    /** Reject new work with 503 + Retry-After above a high watermark,
     *  re-admit below a low watermark (hysteresis). */
    ThresholdReject,
    /** Token-bucket admission whose rate is tuned by a feedback loop
     *  on measured serving latency (AIMD). */
    RateThrottle,
};

const char *overloadPolicyName(OverloadPolicy p);

/**
 * Hop-by-hop distributed overload control scheme (the comparative
 * study's three feedback families). A downstream proxy piggybacks an
 * `Overload:` header on every response it sends upstream; the upstream
 * proxy keeps per-destination throttle state and gates new INVITEs
 * toward that destination before spending routing/forwarding cost.
 */
enum class FeedbackScheme
{
    /** No feedback; purely local control (the collapse baseline). */
    None,
    /** Degenerate on/off restriction: downstream says stop/go. */
    OnOff,
    /** Explicit rate grant: downstream computes an admit rate from its
     *  occupancy/latency-EWMA signals and advertises it (cps). */
    Rate,
    /** Window grant: upstream may have at most W pending INVITE
     *  transactions toward the downstream; W tracks feedback. */
    Window,
};

const char *feedbackSchemeName(FeedbackScheme s);

/**
 * Knobs for hop-by-hop distributed overload control. One struct serves
 * both roles a chained proxy plays: the downstream advertiser (AIMD
 * steering of the granted rate/window from the local overload signals)
 * and the upstream gate (per-destination throttle state fed by the
 * advertisements it receives).
 */
struct HopControlConfig
{
    FeedbackScheme scheme = FeedbackScheme::None;

    bool enabled() const { return scheme != FeedbackScheme::None; }

    // --- downstream advertiser -----------------------------------------
    /** Advertisement update tick (AIMD step period). */
    sim::SimTime adjustInterval = sim::msecs(50);
    /** Occupancy entering/leaving the restricted state. */
    double occHigh = 0.85;
    double occLow = 0.50;
    /** Serving-latency EWMA the advertiser steers toward. */
    sim::SimTime latencyTarget = sim::msecs(60);
    /** Rate grant: first advertisement and AIMD bounds/steps (cps). */
    double initialRate = 1000;
    double minRate = 50;
    double maxRate = 1e6;
    double decreaseFactor = 0.85;
    double increasePerInterval = 50;
    /** Window grant: first advertisement and bounds. Decrease is
     *  multiplicative (decreaseFactor), increase is additive
     *  (windowIncreasePerInterval slots per tick). */
    int initialWindow = 32;
    int minWindow = 1;
    int maxWindow = 4096;
    /** Additive window growth per adjust tick. The default +1 is the
     *  classic conservative AIMD; a bottleneck whose operating window
     *  is large needs a faster climb or it idles for seconds after
     *  every multiplicative cut. */
    int windowIncreasePerInterval = 1;

    // --- upstream gate -------------------------------------------------
    /** Token-bucket burst capacity for the rate gate. */
    double burstTokens = 16;
    /** Feedback older than this fails open (admit): a grant must not
     *  outlive the response stream that carries its refreshes. */
    sim::SimTime grantTtl = sim::secs(2);
    /** If nonzero, a gated INVITE is parked (the `throttled` trace
     *  wait state) up to this long for a grant before being rejected.
     *  Forced to 0 under the event-driven architecture, whose loops
     *  must never block. */
    sim::SimTime holdMax = 0;
    /** Retry-After carried in hop-throttle 503 rejections. */
    int retryAfterSecs = 1;
};

/**
 * Overload-control knobs. Admission signals are transaction-table
 * occupancy, receive/request queue depth, and a serving-latency EWMA;
 * shedding is transport-aware: datagram transports answer with a cheap
 * stateless 503 (or silently drop past the panic threshold), TCP
 * additionally pauses accepts and connection reads so kernel flow
 * control pushes back on clients.
 */
struct OverloadConfig
{
    OverloadPolicy policy = OverloadPolicy::None;

    // --- admission signals ---------------------------------------------
    /** Transaction-table occupancy denominator (map entries; the table
     *  holds two keys per record). */
    std::size_t txnTableCapacity = 1 << 17;
    /** Receive-queue occupancy denominator. Keep in sync with
     *  net::NetConfig::udpRecvQueue for datagram transports. */
    std::size_t recvQueueCapacity = 4096;
    /** Serving-latency EWMA smoothing factor. */
    double ewmaAlpha = 0.2;
    /** With no served transactions for this long, the EWMA decays as
     *  if a zero-latency sample arrived each period — otherwise one
     *  Timer B expiry could freeze shedding on with nothing left to
     *  serve that would bring the average back down. */
    sim::SimTime ewmaIdleDecay = sim::msecs(100);

    // --- ThresholdReject -----------------------------------------------
    /** Start shedding when any occupancy signal reaches this. */
    double highWatermark = 0.85;
    /** Stop shedding when every occupancy signal falls back here. */
    double lowWatermark = 0.50;
    /** Latency bounds entering/leaving the shedding state. */
    sim::SimTime latencyHigh = sim::msecs(60);
    sim::SimTime latencyLow = sim::msecs(15);
    /** Above this occupancy even 503 generation is too expensive:
     *  datagram transports drop silently (stateless, pre-parse). */
    double panicWatermark = 0.97;
    /** Retry-After value carried in 503 rejections. */
    int retryAfterSecs = 1;

    // --- TCP backpressure ------------------------------------------------
    /** While shedding, reads/accepts pause in slices this long, then
     *  resume so the admission signals can decay (no livelock). */
    sim::SimTime pauseSlice = sim::msecs(20);

    // --- RateThrottle -----------------------------------------------------
    /** Initial admitted-INVITE rate (per second). */
    double initialRate = 20000;
    double minRate = 200;
    double maxRate = 1e6;
    /** Token-bucket burst capacity. */
    double burstTokens = 64;
    /** Feedback-loop tick. */
    sim::SimTime adjustInterval = sim::msecs(50);
    /** Serving-latency target the loop steers toward. */
    sim::SimTime latencyTarget = sim::msecs(15);
    /** Multiplicative decrease when above target. */
    double decreaseFactor = 0.85;
    /** Additive increase (per tick) when below target. */
    double increasePerInterval = 400;

    /** Hop-by-hop distributed control (off by default). */
    HopControlConfig hop;
};

/**
 * One proxy's view of its cluster membership (core/location.hh). The
 * workload Topology fills this in for every instance of a dispatched
 * cluster; the default (instances == 0) means "not clustered" and
 * leaves every single-proxy and chain code path untouched.
 */
struct ClusterMemberConfig
{
    /** This proxy's instance index (0-based). */
    int instance = -1;
    /** Cluster size; 0 disables every cluster code path. */
    int instances = 0;
    /** Virtual nodes per instance on the consistent-hash ring. Must
     *  match the dispatcher's so AOR ownership agrees end to end. */
    int vnodes = 64;
    /** Serve reads from async-replicated bindings when the local shard
     *  does not own the AOR (staleness-for-locality trade; off means
     *  every non-owned lookup forwards to the owner instance). */
    bool staleReads = false;
    /** Replication staleness knob: a binding written at t is pushed to
     *  the peers no earlier than t + replicationLag. */
    sim::SimTime replicationLag = sim::msecs(50);
    /** SIP addresses of every instance (index-aligned), for the
     *  cache-miss forwarding path. */
    std::vector<net::Addr> peers;
    /** Replication-socket addresses of every instance. */
    std::vector<net::Addr> replPeers;
    /** UDP port the replication receiver binds. */
    std::uint16_t replPort = 5070;

    bool enabled() const { return instances > 0; }
};

/** Timer tick driving idle scans (supervisor, workers, event loops). */
inline constexpr sim::SimTime kIdleScanInterval = sim::msecs(10);

/** Full proxy configuration. */
struct ProxyConfig
{
    Transport transport = Transport::Udp;
    /** Server architecture (Auto: OpenSER's transport-implied map). */
    ArchKind arch = ArchKind::Auto;
    /** Worker processes; the paper uses 24 for UDP and 32 for TCP.
     *  EventDriven ignores this and runs one loop per core. */
    int workers = 24;
    /** Stateful proxies absorb retransmissions and send 100 Trying. */
    bool stateful = true;
    /**
     * Digest authentication (related work: Nahum et al. found it the
     * single largest performance factor). Requests without credentials
     * are challenged with 401; credentialed ones pay a verification
     * plus user-database cost per request.
     */
    bool authenticate = false;
    /**
     * Redirect-server mode (paper §2): instead of proxying, answer
     * INVITEs with 302 Moved Temporarily carrying the registered
     * contact; callers then signal the callee directly. Datagram
     * transports only (phones do not accept TCP connections).
     */
    bool redirect = false;
    std::uint16_t port = 5060;

    // --- TCP architecture knobs -------------------------------------------
    ConcurrencyModel concurrency = ConcurrencyModel::Process;
    /** §5.2 fix: per-worker cache of passed descriptors. */
    bool fdCache = false;
    /** §5.3 fix: priority-queue idle management. */
    IdleStrategy idleStrategy = IdleStrategy::LinearScan;
    /** Idle connection timeout (OpenSER default 120 s; paper uses 10 s). */
    sim::SimTime idleTimeout = sim::secs(10);
    /** Supervisor nice value; the paper elevates it to -20. */
    int supervisorNice = -20;
    /** §6: never block in IPC sends (prevents the deadlock). */
    bool eventDrivenIpc = false;
    /** Capacity of each supervisor->worker dispatch channel. */
    int dispatchChannelCapacity = 64;

    // --- stateful timer engine ---------------------------------------------
    /** Tick of the timer process scanning the retransmission list. */
    sim::SimTime timerTick = sim::msecs(100);
    /** Completed transactions linger this long before cleanup. */
    sim::SimTime txnLinger = sim::secs(1);

    /** Overload control (off by default: the collapse baseline). */
    OverloadConfig overload;

    /**
     * Next proxy in a multi-hop chain. When valid, every non-REGISTER
     * request is forwarded there (no registrar consult) and new
     * INVITEs pass the hop-by-hop throttle gate first; REGISTERs stay
     * local (phones register at their home proxy). Invalid (default):
     * this proxy is the chain destination and routes normally.
     */
    net::Addr nextHop{};

    /**
     * Base of the per-worker Via-branch salt. Chained proxies MUST use
     * disjoint bases: branches key transaction records, and a proxy's
     * table holds both its own client records and server records keyed
     * by its upstream's branches — identical generator streams on two
     * hops collide there and eat each other's INVITEs as
     * "retransmissions". Single proxies keep the historical default
     * (existing digest goldens pin the exact wire bytes).
     */
    std::uint64_t branchSaltBase = 0x5150;

    /** Cluster membership (disabled by default). */
    ClusterMemberConfig cluster;

    CostModel costs;
};

} // namespace siprox::core

#endif // SIPROX_CORE_CONFIG_HH
