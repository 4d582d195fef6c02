#include "net/sst.hh"

#include <algorithm>
#include <utility>

#include "net/error.hh"
#include "sim/simulation.hh"

namespace siprox::net {

namespace {

const sim::CostCenterId kSstSendCc =
    sim::CostCenters::id("kernel:sst_send");
const sim::CostCenterId kSstRecvCc =
    sim::CostCenters::id("kernel:sst_recv");
const sim::CostCenterId kSstChannelCc =
    sim::CostCenters::id("kernel:sst_channel");
const sim::CostCenterId kSstStreamCc =
    sim::CostCenters::id("kernel:sst_stream");

} // namespace

const char *
sstStreamStateName(SstStreamState s)
{
    switch (s) {
      case SstStreamState::Open:
        return "Open";
      case SstStreamState::HalfClosedLocal:
        return "HalfClosedLocal";
      case SstStreamState::HalfClosedRemote:
        return "HalfClosedRemote";
      case SstStreamState::Closed:
        return "Closed";
    }
    return "?";
}

SstSocket::SstSocket(Host &host, std::uint16_t port)
    : DatagramSocket(host, port, "sst recv")
{
}

SstSocket::~SstSocket() = default;

sim::Task
SstSocket::chargeSendBatch(sim::Process &p, std::size_t msgs,
                           std::size_t bytes)
{
    return chargeBatched(p, host_.net().config().sstSendCost,
                         kSstSendCc, msgs, bytes);
}

sim::Task
SstSocket::chargeRecvBatch(sim::Process &p, std::size_t msgs,
                           std::size_t bytes)
{
    return chargeBatched(p, host_.net().config().sstRecvCost,
                         kSstRecvCc, msgs, bytes);
}

sim::Task
SstSocket::ensureChannel(sim::Process &p, Addr dst, SimTime &extra)
{
    Network &net = host_.net();
    extra = 0;
    sim::SimTime now = p.sim().now();
    auto it = channels_.find(dst);
    if (it == channels_.end()) {
        // Kernel transparently sets up the channel: CPU on this sender
        // plus one extra round trip absorbed by the first frames.
        co_await p.cpu(net.config().sstChannelCost, kSstChannelCc);
        extra = 2 * net.config().latency;
        ++net.stats().sstChannels;
        now = p.sim().now();
        it = channels_.emplace(dst, Channel{now}).first;
        scheduleSweep();
    }
    it->second.lastUse = now;
}

// Member coroutine: SstSocket objects are owned by the Host map and
// never move, so capturing `this` in the frame is safe.
sim::Task
SstSocket::sendPrepared(sim::Process &p, Addr dst, std::string payload)
{
    Network &net = host_.net();
    const NetConfig &cfg = net.config();
    SimTime extra = 0;
    co_await ensureChannel(p, dst, extra);
    // One ephemeral stream per message: setup and teardown folded into
    // the send — the cheap-stream design point.
    co_await p.cpu(cfg.sstStreamCost, kSstStreamCc);
    ++net.stats().sstStreams;
    ++net.stats().sstMessages;
    SimTime floor = 0;
    scheduleFrames(dst, ++nextStreamId_, std::move(payload),
                   /*eom=*/true, /*fin=*/true, /*ephemeral=*/true, extra,
                   floor);
}

void
SstSocket::scheduleFrames(Addr dst, std::uint32_t sid,
                          std::string payload, bool eom, bool fin,
                          bool ephemeral, SimTime extra, SimTime &floor)
{
    Network &net = host_.net();
    const NetConfig &cfg = net.config();
    const std::size_t mtu =
        static_cast<std::size_t>(std::max(cfg.sstMtu, 1));
    const std::size_t total = payload.size();
    sim::SimTime now = net.sim().now();
    Network *netp = &net;
    Addr src = localAddr();

    std::size_t offset = 0;
    std::size_t cum = 0;
    bool first = true;
    while (first || offset < total) {
        first = false;
        std::size_t n = std::min(mtu, total - offset);
        bool last = offset + n >= total;
        std::string chunk = (last && offset == 0)
            ? std::move(payload)
            : payload.substr(offset, n);
        offset += n;
        cum += n;
        ++net.stats().sstFrames;
        host_.noteSent(n);

        SimTime fault_delay = 0;
        if (net.faults().enabled()) {
            auto verdict =
                net.faults().onSegment(now, host_.id(), dst.host);
            if (verdict.fate == FaultInjector::SegmentFate::Blackhole) {
                // The substrate lost the frame for good: the whole
                // message is gone (no cross-message retransmission in
                // this model), later frames are not even sent.
                if (eom)
                    ++net.stats().sstLost;
                return;
            }
            if (verdict.fate == FaultInjector::SegmentFate::Rst) {
                // Channels absorb resets QUIC-style: the stream stalls
                // for the in-kernel recovery, nothing surfaces.
                fault_delay += net.faults()
                                   .lookup(host_.id(), dst.host)
                                   .recoveryDelay;
            }
            fault_delay += verdict.extraDelay;
            if (verdict.recovered)
                ++net.stats().tcpRecoveries;
            if (fault_delay > 0)
                ++net.stats().faultDelayed;
        }
        // Ordering is per stream only: frames of this stream never
        // overtake each other, but other streams are independent — no
        // cross-stream head-of-line blocking.
        SimTime arrival = std::max(
            now + net.wireDelay(cum) + extra + fault_delay, floor);
        floor = arrival;
        bool frame_eom = last && eom;
        bool frame_fin = last && fin;
        net.sim().at(arrival, [netp, src, dst, sid, frame_eom, frame_fin,
                               ephemeral,
                               c = std::move(chunk)]() mutable {
            Host *target = netp->hostById(dst.host);
            if (!target)
                return;
            auto sit = target->sst_.find(dst.port);
            if (sit == target->sst_.end())
                return;
            sit->second->deliverFrame(src, sid, std::move(c), frame_eom,
                                      frame_fin, ephemeral);
        });
    }
}

// --- explicit stream API ----------------------------------------------------

sim::Task
SstSocket::openStream(sim::Process &p, Addr dst, std::uint32_t &out)
{
    Network &net = host_.net();
    co_await p.cpu(net.config().sstStreamCost, kSstStreamCc);
    ++net.stats().sstStreams;
    std::uint32_t id = ++nextStreamId_;
    local_.emplace(id, LocalStream{dst, SstStreamState::Open, 0});
    out = id;
}

sim::Task
SstSocket::streamSend(sim::Process &p, std::uint32_t id,
                      std::string payload)
{
    auto it = local_.find(id);
    if (it == local_.end() || it->second.state != SstStreamState::Open)
        throw NetError(NetErrc::NotConnected,
                       "sst stream " + std::to_string(id)
                           + " is not open for sending");
    Addr peer = it->second.peer;
    Network &net = host_.net();
    co_await chargeSendBatch(p, 1, payload.size());
    SimTime extra = 0;
    co_await ensureChannel(p, peer, extra);
    // Re-find: the map may have rehashed (or the stream been torn
    // down) while we were suspended.
    it = local_.find(id);
    if (it == local_.end() || it->second.state != SstStreamState::Open)
        co_return;
    ++net.stats().sstMessages;
    scheduleFrames(peer, id, std::move(payload), /*eom=*/true,
                   /*fin=*/false, /*ephemeral=*/false, extra,
                   it->second.deliveryFloor);
}

sim::Task
SstSocket::streamHalfClose(sim::Process &p, std::uint32_t id)
{
    auto it = local_.find(id);
    if (it == local_.end() || it->second.state != SstStreamState::Open)
        throw NetError(NetErrc::NotConnected,
                       "sst stream " + std::to_string(id)
                           + " is not open");
    Addr peer = it->second.peer;
    Network &net = host_.net();
    co_await p.cpu(net.config().sstStreamCost, kSstStreamCc);
    SimTime extra = 0;
    co_await ensureChannel(p, peer, extra);
    it = local_.find(id);
    if (it == local_.end())
        co_return;
    it->second.state = SstStreamState::HalfClosedLocal;
    scheduleFrames(peer, id, std::string(), /*eom=*/false, /*fin=*/true,
                   /*ephemeral=*/false, extra, it->second.deliveryFloor);
    // The local record lingers half-closed until the teardown round
    // trip completes, then reads as Closed.
    net.sim().after(2 * net.config().latency + extra,
                    [this, id] { local_.erase(id); });
}

SstStreamState
SstSocket::streamState(std::uint32_t id) const
{
    auto it = local_.find(id);
    if (it != local_.end())
        return it->second.state;
    for (const auto &[src, streams] : remote_) {
        auto rit = streams.find(id);
        if (rit != streams.end())
            return rit->second.state;
    }
    return SstStreamState::Closed;
}

std::size_t
SstSocket::streamCount() const
{
    std::size_t n = local_.size();
    for (const auto &[src, streams] : remote_)
        n += streams.size();
    return n;
}

// --- receive path -----------------------------------------------------------

void
SstSocket::deliverFrame(Addr src, std::uint32_t sid, std::string chunk,
                        bool eom, bool fin, bool ephemeral)
{
    sim::SimTime now = host_.net().sim().now();
    host_.noteReceived(chunk.size());
    // Track the reverse-direction channel (set up by the peer).
    channels_[src].lastUse = now;
    scheduleSweep();
    auto &per_peer = remote_[src];
    RemoteStream &rs = per_peer[sid];
    rs.lastUse = now;
    rs.framer.feed(std::move(chunk), eom);
    while (auto msg = rs.framer.next()) {
        // Bounded like UDP's receive buffer: sustained overload shows
        // up as kernel-side discards, not unbounded memory.
        if (!enqueueDelivery(Datagram{src, localAddr(), std::move(*msg)}))
            ++host_.net().stats().sstDropped;
    }
    if (fin) {
        if (ephemeral) {
            // One-shot stream: teardown is immediate and free.
            per_peer.erase(sid);
            if (per_peer.empty())
                remote_.erase(src);
        } else {
            rs.state = SstStreamState::HalfClosedRemote;
        }
    }
}

void
SstSocket::scheduleSweep()
{
    if (sweepScheduled_ || (channels_.empty() && remote_.empty()))
        return;
    sweepScheduled_ = true;
    SimTime interval = host_.net().config().sstIdleTimeout / 2;
    host_.net().sim().after(interval, [this] {
        sweepScheduled_ = false;
        sweepIdle();
    });
}

void
SstSocket::sweepIdle()
{
    // Kernel-side reaping: no application process is charged.
    SimTime now = host_.net().sim().now();
    SimTime timeout = host_.net().config().sstIdleTimeout;
    for (auto it = channels_.begin(); it != channels_.end();) {
        if (now - it->second.lastUse >= timeout)
            it = channels_.erase(it);
        else
            ++it;
    }
    // Stale remote streams (peer vanished mid-message or never tore
    // down) go the same way.
    for (auto pit = remote_.begin(); pit != remote_.end();) {
        auto &streams = pit->second;
        for (auto it = streams.begin(); it != streams.end();) {
            if (now - it->second.lastUse >= timeout)
                it = streams.erase(it);
            else
                ++it;
        }
        if (streams.empty())
            pit = remote_.erase(pit);
        else
            ++pit;
    }
    scheduleSweep();
}

} // namespace siprox::net
