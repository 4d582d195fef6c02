#include "net/sctp.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/simulation.hh"

namespace siprox::net {

namespace {

const sim::CostCenterId kSctpSendCc =
    sim::CostCenters::id("kernel:sctp_send");
const sim::CostCenterId kSctpRecvCc =
    sim::CostCenters::id("kernel:sctp_recv");
const sim::CostCenterId kSctpAssocCc =
    sim::CostCenters::id("kernel:sctp_assoc");

} // namespace

SctpSocket::SctpSocket(Host &host, std::uint16_t port)
    : DatagramSocket(host, port, "sctp recv")
{
}

SctpSocket::~SctpSocket() = default;

sim::Task
SctpSocket::chargeSendBatch(sim::Process &p, std::size_t msgs,
                            std::size_t bytes)
{
    return chargeBatched(p, host_.net().config().sctpSendCost,
                         kSctpSendCc, msgs, bytes);
}

sim::Task
SctpSocket::chargeRecvBatch(sim::Process &p, std::size_t msgs,
                            std::size_t bytes)
{
    return chargeBatched(p, host_.net().config().sctpRecvCost,
                         kSctpRecvCc, msgs, bytes);
}

// Member coroutine: SctpSocket objects are owned by the Host map and
// never move, so capturing `this` in the frame is safe.
sim::Task
SctpSocket::sendPrepared(sim::Process &p, Addr dst, std::string payload)
{
    Network &net = host_.net();
    const NetConfig &cfg = net.config();
    const std::size_t bytes = payload.size();
    SimTime extra = 0;
    sim::SimTime now = p.sim().now();
    auto it = assocs_.find(dst);
    if (it == assocs_.end()) {
        // Kernel transparently sets up the association: CPU on this
        // sender plus one extra round trip for the first message.
        co_await p.cpu(cfg.sctpAssocCost, kSctpAssocCc);
        extra = 2 * cfg.latency;
        ++net.stats().sctpAssocs;
        now = p.sim().now();
        it = assocs_.emplace(dst, Assoc{now, now}).first;
        scheduleSweep();
    }
    it->second.lastUse = now;
    ++net.stats().sctpMessages;
    host_.noteSent(bytes);
    if (net.faults().enabled()) {
        auto verdict =
            net.faults().onSegment(now, host_.id(), dst.host);
        if (verdict.fate == FaultInjector::SegmentFate::Blackhole) {
            // Association is dead; the message never arrives.
            co_return;
        }
        // SCTP has no RST fate in this model; a reset roll just
        // behaves like a recovered loss on the ordered stream.
        if (verdict.fate == FaultInjector::SegmentFate::Rst)
            verdict.extraDelay +=
                net.faults().lookup(host_.id(), dst.host).recoveryDelay;
        if (verdict.recovered)
            ++net.stats().tcpRecoveries;
        if (verdict.extraDelay > 0)
            ++net.stats().faultDelayed;
        extra += verdict.extraDelay;
    }
    // SCTP streams are ordered: later messages never overtake earlier
    // ones held up by association setup.
    SimTime arrival =
        std::max(now + net.wireDelay(bytes) + extra,
                 it->second.deliveryFloor);
    it->second.deliveryFloor = arrival;
    Network *netp = &net;
    Addr src = localAddr();
    p.sim().at(arrival,
               [netp, src, dst, data = std::move(payload)]() mutable {
        Host *target = netp->hostById(dst.host);
        if (!target)
            return;
        auto sit = target->sctp_.find(dst.port);
        if (sit == target->sctp_.end())
            return;
        sit->second->deliver(Datagram{src, dst, std::move(data)});
    });
}

void
SctpSocket::deliver(Datagram dgram)
{
    host_.noteReceived(dgram.payload.size());
    // Track the reverse-direction association (set up by the peer).
    assocs_[dgram.src].lastUse = host_.net().sim().now();
    scheduleSweep();
    // The receive buffer is bounded like UDP's. Real SCTP would close
    // the peer's rwnd instead; modeling that as a kernel-side discard
    // keeps the socket unbuffered-growth-free and makes sustained
    // overload visible, which is what matters here.
    if (!enqueueDelivery(std::move(dgram)))
        ++host_.net().stats().sctpDropped;
}

void
SctpSocket::scheduleSweep()
{
    if (sweepScheduled_ || assocs_.empty())
        return;
    sweepScheduled_ = true;
    SimTime interval = host_.net().config().sctpIdleTimeout / 2;
    host_.net().sim().after(interval, [this] {
        sweepScheduled_ = false;
        sweepIdle();
    });
}

void
SctpSocket::sweepIdle()
{
    // Kernel-side reaping: no application process is charged.
    SimTime now = host_.net().sim().now();
    SimTime timeout = host_.net().config().sctpIdleTimeout;
    for (auto it = assocs_.begin(); it != assocs_.end();) {
        if (now - it->second.lastUse >= timeout)
            it = assocs_.erase(it);
        else
            ++it;
    }
    scheduleSweep();
}

} // namespace siprox::net
