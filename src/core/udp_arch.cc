#include "core/udp_arch.hh"

#include "core/transport_io.hh"
#include "sim/simulation.hh"

namespace siprox::core {

UdpArch::UdpArch(sim::Machine &machine, net::Host &host,
                 SharedState &shared, const ProxyConfig &cfg)
    : machine_(machine), host_(host), shared_(shared), cfg_(cfg)
{
}

void
UdpArch::start()
{
    sock_ = &bindDatagram(host_, cfg_.transport, cfg_.port);
    net::Addr addr = host_.addr(cfg_.port);
    for (int i = 0; i < cfg_.workers; ++i) {
        engines_.push_back(
            std::make_unique<Engine>(shared_, cfg_, addr, i));
        loops_.push_back(std::make_unique<WorkerLoop>(shared_, cfg_,
                                                      *engines_.back()));
        machine_.spawn("worker" + std::to_string(i), 0,
                       [this, i](sim::Process &p) {
                           return workerMain(p, i);
                       });
    }
    // §3.2: the timer process is essential for UDP (retransmissions).
    // It shares worker 0's engine (as OpenSER's timer does) but needs
    // its own WorkerLoop: loops must not be shared across processes.
    timerLoop_ = std::make_unique<WorkerLoop>(shared_, cfg_,
                                              *engines_[0]);
    machine_.spawn("timer", 0, [this](sim::Process &p) {
        return timerLoop_->timerMain(p, stop_, sock_);
    });
}

std::size_t
UdpArch::recvQueueDepth() const
{
    return sock_ ? sock_->queueDepth() : 0;
}

std::uint64_t
UdpArch::recvQueueDrops() const
{
    return sock_ ? sock_->overflowDrops() : 0;
}

void
UdpArch::appendTelemetryGauges(std::vector<ArchGauge> &out) const
{
    out.push_back({"arch.recvQueuePeak",
                   static_cast<double>(sock_ ? sock_->queuePeak() : 0)});
}

sim::Task
UdpArch::workerMain(sim::Process &p, int id)
{
    WorkerLoop &loop = *loops_[static_cast<std::size_t>(id)];
    const int bmax = host_.net().config().batchMax;
    std::vector<net::Datagram> batch;
    std::vector<net::OutDatagram> outbox;
    while (!stop_) {
        // One simulated recvmmsg (plain recvfrom at the default
        // batchMax of 1): waits for the first datagram, then drains
        // whatever else is queued (up to bmax) for one batched kernel
        // charge. The batch's last dispatch flushes its replies.
        co_await sock_->recvBatch(p, batch, bmax);
        if (stop_)
            break;
        std::size_t left = batch.size();
        for (auto &dgram : batch)
            co_await loop.dispatchCollect(p, *sock_, std::move(dgram),
                                          outbox, batch.size(), --left);
    }
}

} // namespace siprox::core
