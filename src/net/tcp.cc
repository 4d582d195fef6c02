#include "net/tcp.hh"

#include <algorithm>
#include <cassert>

#include "net/error.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"

namespace siprox::net {

namespace {

const sim::CostCenterId kTcpSendCc =
    sim::CostCenters::id("kernel:tcp_send");
const sim::CostCenterId kTcpRecvCc =
    sim::CostCenters::id("kernel:tcp_recv");
const sim::CostCenterId kTcpCloseCc =
    sim::CostCenters::id("kernel:tcp_close");
const sim::CostCenterId kTcpAcceptCc =
    sim::CostCenters::id("kernel:tcp_accept");
const sim::CostCenterId kTcpConnectCc =
    sim::CostCenters::id("kernel:tcp_connect");
const sim::CostCenterId kTlsRecordCc =
    sim::CostCenters::id("tls:record");
const sim::CostCenterId kTlsHandshakeCc =
    sim::CostCenters::id("tls:handshake");

using Wake = sim::Pollable::Wake;

} // namespace

/**
 * Coroutine bodies for TcpConn operations. TcpConn handles are movable,
 * so the coroutines capture the endpoint shared_ptr by value instead of
 * `this`.
 */
struct TcpOps
{
    static sim::Task
    send(sim::Process &p, std::shared_ptr<TcpEndpoint> ep,
         std::string data)
    {
        if (!ep) {
            if (sim::trace::enabled())
                sim::trace::log(p.sim().now(), "tcp-drop", "null ep");
            co_return;
        }
        if (sim::trace::enabled()) {
            sim::trace::log(p.sim().now(), "tcp-send",
                            ep->local_.toString() + "->"
                                + ep->remote_.toString() + " "
                                + std::to_string(data.size()) + "B");
        }
        Network &net = ep->host_.net();
        const NetConfig &cfg = net.config();
        const std::size_t bytes = data.size();
        co_await p.cpu(cfg.tcpSendCost
                       + static_cast<SimTime>(bytes) * cfg.perByteCpu,
                       kTcpSendCc);
        if (ep->tls_) {
            // Record framing + bulk cipher on the way out.
            co_await p.cpu(cfg.tlsRecordCost
                           + static_cast<SimTime>(bytes)
                               * cfg.tlsPerByteCpu,
                           kTlsRecordCc);
            ++net.stats().tlsRecords;
        }
        ++net.stats().tcpSegments;
        net.stats().tcpBytes += bytes;
        ep->host_.noteSent(bytes);
        if (ep->closed_ || ep->state_ != TcpState::Established
            || !ep->peer_) {
            if (sim::trace::enabled()) {
                sim::trace::log(p.sim().now(), "tcp-drop",
                                ep->local_.toString() + "->"
                                    + ep->remote_.toString()
                                    + (ep->closed_ ? " closed"
                                       : !ep->peer_ ? " no-peer"
                                                    : " not-established"));
            }
            co_return; // connection is gone: bytes vanish
        }
        auto peer = ep->peer_;
        SimTime fault_delay = 0;
        if (net.faults().enabled()) {
            auto verdict = net.faults().onSegment(
                p.sim().now(), ep->local_.host, ep->remote_.host);
            switch (verdict.fate) {
              case FaultInjector::SegmentFate::Blackhole:
                // The kernel accepted the bytes but they never arrive
                // and no error ever surfaces on either side.
                ++net.stats().tcpBlackholed;
                co_return;
              case FaultInjector::SegmentFate::Rst: {
                ++net.stats().tcpRstInjected;
                if (sim::trace::enabled()) {
                    sim::trace::log(p.sim().now(), "tcp-rst",
                                    ep->local_.toString() + "->"
                                        + ep->remote_.toString());
                }
                // Sender learns of the reset immediately; the peer
                // sees it one latency later.
                ep->state_ = TcpState::Reset;
                ep->notify(Wake::All);
                net.sim().after(net.config().latency, [peer] {
                    if (peer->closed_
                        || peer->state_ != TcpState::Established)
                        return;
                    peer->state_ = TcpState::Reset;
                    peer->notify(Wake::All);
                });
                co_return;
              }
              case FaultInjector::SegmentFate::Deliver:
                fault_delay = verdict.extraDelay;
                if (verdict.recovered)
                    ++net.stats().tcpRecoveries;
                if (fault_delay > 0)
                    ++net.stats().faultDelayed;
                break;
            }
        }
        // TCP is a single ordered stream: later segments (and the
        // eventual FIN) must not overtake earlier ones.
        SimTime arrival =
            std::max(p.sim().now() + net.wireDelay(bytes) + fault_delay,
                     ep->txArrivalFloor_);
        ep->txArrivalFloor_ = arrival;
        net.sim().at(arrival, [peer, d = std::move(data)]() mutable {
            if (peer->closed_)
                return;
            peer->host_.noteReceived(d.size());
            peer->rxBuf_ += d;
            peer->notify(Wake::One);
        });
    }

    static sim::Task
    recv(sim::Process &p, std::shared_ptr<TcpEndpoint> ep,
         std::string *out, std::size_t max_bytes)
    {
        out->clear();
        if (!ep)
            co_return;
        while (ep->rxBuf_.empty() && !ep->peerClosed_ && !ep->closed_
               && ep->state_ == TcpState::Established)
            co_await ep->park(p, "tcp recv", sim::trace::Wait::Socket);
        const NetConfig &cfg = ep->host_.net().config();
        if (ep->tlsPendingHandshake_ > 0) {
            // The accepting side runs its half of the TLS handshake
            // the first time it touches the connection.
            SimTime hs = ep->tlsPendingHandshake_;
            ep->tlsPendingHandshake_ = 0;
            co_await p.cpu(hs, kTlsHandshakeCc);
        }
        if (!ep->rxBuf_.empty()) {
            std::size_t n = std::min(max_bytes, ep->rxBuf_.size());
            if (n == ep->rxBuf_.size()) {
                // Full drain (the common case): hand over the buffer
                // instead of copying it.
                *out = std::move(ep->rxBuf_);
                ep->rxBuf_.clear();
            } else {
                out->assign(ep->rxBuf_, 0, n);
                ep->rxBuf_.erase(0, n);
            }
            co_await p.cpu(cfg.tcpRecvCost
                           + static_cast<SimTime>(n) * cfg.perByteCpu,
                           kTcpRecvCc);
            if (ep->tls_) {
                // Record MAC check + bulk decipher on the way in.
                co_await p.cpu(cfg.tlsRecordCost
                               + static_cast<SimTime>(n)
                                   * cfg.tlsPerByteCpu,
                               kTlsRecordCc);
            }
        } else {
            // EOF or reset: an empty read still costs a syscall.
            co_await p.cpu(cfg.tcpRecvCost, kTcpRecvCc);
        }
    }

    static sim::Task
    close(sim::Process &p, std::shared_ptr<TcpEndpoint> ep, bool was_open)
    {
        if (!ep)
            co_return;
        co_await p.cpu(ep->host_.net().config().tcpCloseCost,
                       kTcpCloseCc);
        if (was_open)
            ep->closeHandle();
    }
};

// --- TcpEndpoint ----------------------------------------------------------

TcpEndpoint::TcpEndpoint(Host &host, Addr local, Addr remote,
                         bool owns_port, std::uint64_t id)
    : host_(host), local_(local), remote_(remote), ownsPort_(owns_port),
      id_(id)
{
}

void
TcpEndpoint::closeHandle()
{
    assert(openHandles_ > 0);
    if (--openHandles_ > 0)
        return;
    if (closed_)
        return;
    closed_ = true;
    Network &net = host_.net();

    // FIN to the peer, if the connection ever established. The FIN
    // is sequenced after every data segment already in flight, and is
    // subject to the same link faults (a stalled or partitioned link
    // swallows the FIN along with the data).
    if (peer_ && state_ == TcpState::Established && !selfClosed_) {
        selfClosed_ = true;
        bool fin_lost = false;
        SimTime fault_delay = 0;
        if (net.faults().enabled()) {
            auto verdict = net.faults().onSegment(
                net.sim().now(), local_.host, remote_.host);
            if (verdict.fate == FaultInjector::SegmentFate::Blackhole) {
                ++net.stats().tcpBlackholed;
                fin_lost = true;
            } else {
                // An RST roll on the FIN segment just means the
                // teardown is abrupt; the peer still sees EOF.
                fault_delay = verdict.extraDelay;
                if (verdict.recovered)
                    ++net.stats().tcpRecoveries;
            }
        }
        if (!fin_lost) {
            auto peer = peer_;
            SimTime arrival = std::max(
                net.sim().now() + net.config().latency + fault_delay,
                txArrivalFloor_);
            txArrivalFloor_ = arrival;
            net.sim().at(arrival, [peer] {
                if (peer->closed_)
                    return;
                peer->peerClosed_ = true;
                peer->notify(Wake::All);
            });
        }
    }

    // Port release: a passive close (peer FIN seen first) or a failed
    // connect frees the port immediately; an active close pins it in
    // TIME_WAIT.
    if (ownsPort_) {
        PortAllocator *ports = &host_.ports();
        std::uint16_t port = local_.port;
        if (peerClosed_ || state_ != TcpState::Established) {
            ports->release(port);
        } else {
            net.sim().after(net.config().timeWait,
                            [ports, port] { ports->release(port); });
        }
    }

    host_.socketClosed();

    // Break the peer reference cycle; the dead side can no longer be
    // written to.
    if (peer_) {
        peer_->peer_.reset();
        peer_.reset();
    }
}

// --- TcpConn ---------------------------------------------------------------

TcpConn
TcpConn::dup() const
{
    TcpConn c;
    if (valid()) {
        c.ep_ = ep_;
        c.open_ = true;
        ++ep_->openHandles_;
    }
    return c;
}

sim::Task
TcpConn::send(sim::Process &p, std::string data) const
{
    return TcpOps::send(p, ep_, std::move(data));
}

sim::Task
TcpConn::recv(sim::Process &p, std::string &out,
              std::size_t max_bytes) const
{
    return TcpOps::recv(p, ep_, &out, max_bytes);
}

sim::Task
TcpConn::close(sim::Process &p)
{
    // Transfer handle ownership into the coroutine so the TcpConn can
    // be safely destroyed or moved while the close is awaited.
    auto ep = std::move(ep_);
    bool was_open = open_;
    open_ = false;
    return TcpOps::close(p, std::move(ep), was_open);
}

// --- TcpListener -------------------------------------------------------------

TcpListener::TcpListener(Host &host, std::uint16_t port)
    : host_(host), port_(port)
{
}

TcpListener::~TcpListener() = default;

sim::Task
TcpListener::accept(sim::Process &p, TcpConn &out)
{
    while (acceptQ_.empty())
        co_await park(p, "tcp accept", sim::trace::Wait::Socket);
    auto ep = std::move(acceptQ_.front());
    acceptQ_.pop_front();
    co_await p.cpu(host_.net().config().tcpAcceptCost,
                   kTcpAcceptCc);
    out = TcpConn(std::move(ep));
}

bool
TcpListener::tryAccept(TcpConn &out)
{
    if (acceptQ_.empty())
        return false;
    auto ep = std::move(acceptQ_.front());
    acceptQ_.pop_front();
    out = TcpConn(std::move(ep));
    return true;
}

// --- Host::tcpConnect ---------------------------------------------------------

sim::Task
Host::tcpConnect(sim::Process &p, Addr remote, TcpConn &out,
                 std::uint16_t local_port)
{
    const NetConfig &cfg = net_.config();
    if (openSockets_ >= cfg.maxSocketsPerHost)
        throw NetError(NetErrc::SocketLimit, "host socket table full");
    std::uint16_t lport;
    if (local_port != 0) {
        ports_.reserve(local_port);
        lport = local_port;
    } else {
        lport = ports_.allocEphemeral();
    }

    co_await p.cpu(cfg.tcpConnectCost, kTcpConnectCc);

    auto ep = std::make_shared<TcpEndpoint>(
        *this, Addr{id_, lport}, remote, /*owns_port=*/true,
        net_.nextConnId());
    socketOpened();
    adoptEndpoint(ep);
    ++net_.stats().tcpConnects;
    TcpConn handle(ep);

    Network *net = &net_;
    // SYN arrives at the server after one latency.
    net->sim().after(cfg.latency, [net, ep, remote] {
        const NetConfig &c = net->config();
        Host *dst = net->hostById(remote.host);
        TcpListener *listener = nullptr;
        if (dst) {
            auto it = dst->listeners_.find(remote.port);
            if (it != dst->listeners_.end())
                listener = it->second.get();
        }
        bool fault_refuse = net->faults().enabled()
            && net->faults().onConnect(net->sim().now(),
                                       ep->local_.host, remote.host);
        if (fault_refuse)
            ++net->stats().tcpFaultRefused;
        bool backlog_full = listener
            && static_cast<int>(listener->acceptQ_.size())
                >= c.acceptBacklog;
        bool refuse = fault_refuse || !listener || backlog_full
            || dst->openSockets_ >= c.maxSocketsPerHost;
        if (refuse) {
            ++net->stats().tcpRefused;
            if (backlog_full)
                ++listener->backlogRefused_;
            net->sim().after(c.latency, [ep] {
                if (ep->closed_ || ep->state_ != TcpState::SynSent)
                    return;
                ep->state_ = TcpState::Reset;
                ep->notify(Wake::All);
            });
            return;
        }
        // Server-side endpoint is established immediately and queued.
        auto sep = std::make_shared<TcpEndpoint>(
            *dst, remote, ep->local_, /*owns_port=*/false, ep->id());
        sep->state_ = TcpState::Established;
        sep->peer_ = ep;
        ep->peer_ = sep;
        dst->socketOpened();
        dst->adoptEndpoint(sep);
        listener->acceptQ_.push_back(std::move(sep));
        listener->notify(Wake::One);
        // SYN/ACK completes the client side after another latency.
        net->sim().after(c.latency, [ep] {
            if (ep->closed_ || ep->state_ != TcpState::SynSent)
                return;
            ep->state_ = TcpState::Established;
            ep->notify(Wake::All);
        });
    });

    while (ep->state_ == TcpState::SynSent)
        co_await ep->park(p, "tcp connect", sim::trace::Wait::Socket);
    if (ep->state_ == TcpState::Reset) {
        handle.closeQuiet();
        throw NetError(NetErrc::ConnectionRefused, remote.toString());
    }
    out = std::move(handle);
}

} // namespace siprox::net
