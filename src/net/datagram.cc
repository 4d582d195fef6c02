#include "net/datagram.hh"

#include <algorithm>
#include <utility>

#include "net/network.hh"
#include "sim/simulation.hh"

namespace siprox::net {

DatagramSocket::DatagramSocket(Host &host, std::uint16_t port,
                               const char *recv_block_reason)
    : host_(host), port_(port), recvBlockReason_(recv_block_reason)
{
}

DatagramSocket::~DatagramSocket() = default;

Addr
DatagramSocket::localAddr() const
{
    return Addr{host_.id(), port_};
}

sim::Task
DatagramSocket::sendTo(sim::Process &p, Addr dst, std::string payload)
{
    co_await chargeSendBatch(p, 1, payload.size());
    co_await sendPrepared(p, dst, std::move(payload));
}

sim::Task
DatagramSocket::sendBatch(sim::Process &p,
                          std::vector<OutDatagram> &msgs)
{
    Network &net = host_.net();
    const std::size_t bmax = static_cast<std::size_t>(
        std::max(net.config().batchMax, 1));
    std::size_t i = 0;
    while (i < msgs.size()) {
        std::size_t n = std::min(bmax, msgs.size() - i);
        std::size_t bytes = 0;
        for (std::size_t k = i; k < i + n; ++k)
            bytes += msgs[k].payload.size();
        if (bmax > 1)
            net.stats().batchSend.note(n);
        co_await chargeSendBatch(p, n, bytes);
        for (std::size_t k = i; k < i + n; ++k)
            co_await sendPrepared(p, msgs[k].dst,
                                  std::move(msgs[k].payload));
        i += n;
    }
    msgs.clear();
}

sim::Task
DatagramSocket::waitReadable(sim::Process &p)
{
    while (queue_.empty()) {
        co_await park(p, recvBlockReason_, sim::trace::Wait::Socket);
        consumeWakeCapacity();
    }
}

sim::Task
DatagramSocket::recvFrom(sim::Process &p, Datagram &out)
{
    co_await waitReadable(p);
    out = std::move(queue_.front());
    queue_.pop_front();
    co_await chargeRecvBatch(p, 1, out.payload.size());
}

sim::Task
DatagramSocket::recvBatch(sim::Process &p, std::vector<Datagram> &out,
                          int max)
{
    co_await waitReadable(p);
    std::size_t bytes = 0;
    tryRecvBatch(out, max, bytes);
    co_await chargeRecvBatch(p, out.size(), bytes);
}

std::size_t
DatagramSocket::tryRecvBatch(std::vector<Datagram> &out, int max,
                             std::size_t &bytes)
{
    out.clear();
    bytes = 0;
    const std::size_t cap =
        static_cast<std::size_t>(std::max(max, 1));
    while (out.size() < cap && !queue_.empty()) {
        bytes += queue_.front().payload.size();
        out.push_back(std::move(queue_.front()));
        queue_.pop_front();
    }
    // Batch accounting describes batching: at batchMax = 1 every call
    // is a plain recvfrom, and the net.batch* group stays out of the
    // digest and metrics.
    if (!out.empty() && host_.net().config().batchMax > 1)
        host_.net().stats().batchRecv.note(out.size());
    return out.size();
}

sim::Task
DatagramSocket::chargeBatched(sim::Process &p, sim::SimTime per_msg_cost,
                              sim::CostCenterId cost_center,
                              std::size_t msgs, std::size_t bytes)
{
    const NetConfig &cfg = host_.net().config();
    sim::SimTime fixed = static_cast<sim::SimTime>(
        static_cast<double>(per_msg_cost) * cfg.batchFixedShare);
    if (fixed < 0)
        fixed = 0;
    if (fixed > per_msg_cost)
        fixed = per_msg_cost;
    // fixed + marginal == per_msg_cost by construction, so a batch of
    // one charges exactly the per-message cost.
    sim::SimTime marginal = per_msg_cost - fixed;
    co_await p.cpu(fixed
                       + static_cast<sim::SimTime>(msgs) * marginal
                       + static_cast<sim::SimTime>(bytes)
                           * cfg.perByteCpu,
                   cost_center);
}

bool
DatagramSocket::enqueueDelivery(Datagram dgram)
{
    const NetConfig &cfg = host_.net().config();
    if (static_cast<int>(queue_.size()) >= cfg.udpRecvQueue) {
        ++overflowDrops_;
        return false;
    }
    queue_.push_back(std::move(dgram));
    if (queue_.size() > queuePeak_)
        queuePeak_ = queue_.size();
    // Wake suppression: every wake already in flight will drain up to
    // batchMax messages, so waking one receiver per delivery just
    // bounces the extra receivers off an already-empty queue (a wasted
    // block/wake round trip each) and keeps real batch depth shallow.
    // Only wake another receiver once the queue exceeds what the
    // in-flight wakes can drain.
    if (notify(wokenCapacity_ < queue_.size() ? Wake::One : Wake::None))
        wokenCapacity_ +=
            static_cast<std::size_t>(std::max(cfg.batchMax, 1));
    return true;
}

void
DatagramSocket::consumeWakeCapacity()
{
    const std::size_t share = static_cast<std::size_t>(
        std::max(host_.net().config().batchMax, 1));
    wokenCapacity_ -= wokenCapacity_ < share ? wokenCapacity_ : share;
}

} // namespace siprox::net
