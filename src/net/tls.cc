#include "net/tls.hh"

#include <algorithm>

#include "net/error.hh"
#include "net/tcp.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"

namespace siprox::net {

namespace {

const sim::CostCenterId kTlsHandshakeCc =
    sim::CostCenters::id("tls:handshake");

} // namespace

bool
TlsHostState::touchSession(std::uint32_t client, std::size_t capacity)
{
    auto it = sessions.find(client);
    if (it != sessions.end()) {
        lru.splice(lru.begin(), lru, it->second);
        return false;
    }
    if (capacity == 0)
        return false; // caching disabled outright
    bool evicted = false;
    if (sessions.size() >= capacity) {
        sessions.erase(lru.back());
        lru.pop_back();
        evicted = true;
    }
    lru.push_front(client);
    sessions.emplace(client, lru.begin());
    return evicted;
}

// --- Host::tlsConnect -------------------------------------------------------

sim::Task
Host::tlsConnect(sim::Process &p, Addr remote, TcpConn &out)
{
    const NetConfig &cfg = net_.config();
    TcpConn conn;
    co_await tcpConnect(p, remote, conn);

    Host *server = net_.hostById(remote.host);

    // Handshake kind: resumption needs the client's ticket AND a live
    // entry in the server's session cache (evictions degrade to full).
    bool resumed = cfg.tlsResumption && server
        && tls().tickets.count(remote) != 0
        && server->tls().hasSession(id_);
    bool zero_rtt = resumed && cfg.tlsZeroRtt;

    int flights = zero_rtt ? 0
        : resumed           ? 1
                            : std::max(cfg.tlsFullHandshakeRtts, 0);
    SimTime hs_cost = zero_rtt ? cfg.tlsZeroRttHandshakeCost
        : resumed              ? cfg.tlsResumedHandshakeCost
                               : cfg.tlsFullHandshakeCost;

    if (sim::trace::enabled()) {
        sim::trace::log(p.sim().now(), "tls-handshake",
                        remote.toString()
                            + (zero_rtt  ? " 0rtt"
                               : resumed ? " resumed"
                                         : " full"));
    }

    // Client-side handshake crypto.
    co_await p.cpu(hs_cost, kTlsHandshakeCc);

    // Extra round trips after TCP establishes. Each flight crosses the
    // (possibly impaired) link both ways; a lost or reset flight aborts
    // the handshake and surfaces as a refused connect.
    for (int i = 0; i < flights; ++i) {
        SimTime extra = 0;
        if (net_.faults().enabled()) {
            for (int dir = 0; dir < 2; ++dir) {
                std::uint32_t src = dir == 0 ? id_ : remote.host;
                std::uint32_t dst = dir == 0 ? remote.host : id_;
                auto verdict =
                    net_.faults().onSegment(net_.sim().now(), src, dst);
                if (verdict.fate != FaultInjector::SegmentFate::Deliver) {
                    ++net_.stats().tlsHandshakeAborts;
                    if (verdict.fate == FaultInjector::SegmentFate::Rst)
                        ++net_.stats().tcpRstInjected;
                    else
                        ++net_.stats().tcpBlackholed;
                    conn.closeQuiet();
                    throw NetError(NetErrc::ConnectionRefused,
                                   "TLS handshake aborted: "
                                       + remote.toString());
                }
                extra += verdict.extraDelay;
                if (verdict.recovered)
                    ++net_.stats().tcpRecoveries;
                if (verdict.extraDelay > 0)
                    ++net_.stats().faultDelayed;
            }
        }
        co_await p.sleepFor(2 * cfg.latency + extra);
    }

    // Mark both endpoints as TLS so every send/recv pays record
    // crypto. The server's handshake CPU is charged when its process
    // first reads the connection — that is when the accept side
    // actually runs the handshake in this model, and it keeps the
    // architecture layers' accept paths transport-agnostic.
    auto ep = conn.endpoint();
    if (!ep || ep->state() != TcpState::Established) {
        conn.closeQuiet();
        throw NetError(NetErrc::ConnectionRefused,
                       "connection died during TLS handshake: "
                           + remote.toString());
    }
    ep->tls_ = true;
    if (ep->peer_) {
        ep->peer_->tls_ = true;
        ep->peer_->tlsPendingHandshake_ = hs_cost;
    }

    ++net_.stats().tlsConnects;
    if (zero_rtt)
        ++net_.stats().tlsZeroRttResumes;
    else if (resumed)
        ++net_.stats().tlsHandshakesResumed;
    else
        ++net_.stats().tlsHandshakesFull;

    // Session state for the next connect from this host.
    if (cfg.tlsResumption && server) {
        tls().tickets.insert(remote);
        if (server->tls().touchSession(
                id_,
                static_cast<std::size_t>(
                    std::max(cfg.tlsSessionCacheCapacity, 0))))
            ++net_.stats().tlsSessionEvictions;
    }

    out = std::move(conn);
}

} // namespace siprox::net
