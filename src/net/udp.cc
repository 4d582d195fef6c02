#include "net/udp.hh"

#include <utility>

#include "sim/simulation.hh"

namespace siprox::net {

namespace {

const sim::CostCenterId kUdpSendCc =
    sim::CostCenters::id("kernel:udp_send");
const sim::CostCenterId kUdpRecvCc =
    sim::CostCenters::id("kernel:udp_recv");

} // namespace

UdpSocket::UdpSocket(Host &host, std::uint16_t port)
    : DatagramSocket(host, port, "udp recv")
{
}

UdpSocket::~UdpSocket() = default;

sim::Task
UdpSocket::chargeSendBatch(sim::Process &p, std::size_t msgs,
                           std::size_t bytes)
{
    return chargeBatched(p, host_.net().config().udpSendCost,
                         kUdpSendCc, msgs, bytes);
}

sim::Task
UdpSocket::chargeRecvBatch(sim::Process &p, std::size_t msgs,
                           std::size_t bytes)
{
    return chargeBatched(p, host_.net().config().udpRecvCost,
                         kUdpRecvCc, msgs, bytes);
}

// Member coroutine: UdpSocket objects are owned by the Host map and
// never move, so capturing `this` in the frame is safe.
sim::Task
UdpSocket::sendPrepared(sim::Process &p, Addr dst, std::string payload)
{
    Network &net = host_.net();
    const NetConfig &cfg = net.config();
    const std::size_t bytes = payload.size();
    ++net.stats().udpSent;
    host_.noteSent(bytes);
    if (cfg.udpLossProb > 0.0 && p.sim().rng().chance(cfg.udpLossProb)) {
        ++net.stats().udpLost;
        co_return;
    }
    int copies = 1;
    SimTime extra_delay = 0;
    if (net.faults().enabled()) {
        auto verdict =
            net.faults().onDatagram(p.sim().now(), host_.id(), dst.host);
        if (verdict.drop) {
            ++net.stats().udpLost;
            ++net.stats().faultDropped;
            co_return;
        }
        copies = verdict.copies;
        extra_delay = verdict.extraDelay;
        if (copies > 1)
            ++net.stats().faultDuplicated;
        if (extra_delay > 0)
            ++net.stats().faultDelayed;
    }
    Network *netp = &net;
    Addr src = localAddr();
    for (int i = 0; i < copies; ++i) {
        // Last (usually only) copy moves the payload instead of
        // duplicating it.
        std::string data =
            (i + 1 == copies) ? std::move(payload) : payload;
        p.sim().after(net.wireDelay(bytes) + extra_delay,
                      [netp, src, dst, data = std::move(data)]() mutable {
            Host *target = netp->hostById(dst.host);
            if (!target)
                return;
            auto it = target->udp_.find(dst.port);
            if (it == target->udp_.end())
                return; // no receiver: silently dropped
            it->second->deliver(Datagram{src, dst, std::move(data)});
        });
    }
}

void
UdpSocket::deliver(Datagram dgram)
{
    Network &net = host_.net();
    host_.noteReceived(dgram.payload.size());
    if (!enqueueDelivery(std::move(dgram))) {
        ++net.stats().udpDropped;
        return;
    }
    ++net.stats().udpDelivered;
}

} // namespace siprox::net
