/**
 * @file
 * OpenSER's UDP architecture (paper §3.2, Figure 2): N symmetric worker
 * processes all receiving from one shared socket, plus the timer
 * process that scans the global retransmission list.
 */

#ifndef SIPROX_CORE_UDP_ARCH_HH
#define SIPROX_CORE_UDP_ARCH_HH

#include <memory>
#include <vector>

#include "core/arch.hh"
#include "core/config.hh"
#include "core/engine.hh"
#include "core/shared.hh"
#include "core/worker_loop.hh"
#include "net/datagram.hh"
#include "net/network.hh"
#include "sim/machine.hh"

namespace siprox::core {

/**
 * The symmetric-worker datagram architecture. Also used for SCTP
 * (§6): identical structure over a message-based, connection-oriented
 * socket whose connection management lives in the kernel — the
 * transport difference is entirely behind net::DatagramSocket.
 */
class UdpArch final : public ServerArch
{
  public:
    UdpArch(sim::Machine &machine, net::Host &host, SharedState &shared,
            const ProxyConfig &cfg);

    /** Bind the socket and spawn workers + timer process. */
    void start() override;

    void requestStop() override { stop_ = true; }

    ArchKind kind() const override { return ArchKind::SymmetricWorker; }
    int loopCount() const override { return cfg_.workers; }

    /** No internal work queue exists: the socket receive queue is the
     *  only queue, so it doubles as the request-queue signal. */
    std::size_t
    requestQueueDepth() const override
    {
        return recvQueueDepth();
    }

    /** Depth of the shared socket receive queue (sampling). */
    std::size_t recvQueueDepth() const override;

    /** Messages the proxy socket dropped to receive-queue overflow. */
    std::uint64_t recvQueueDrops() const override;

    std::uint64_t acceptRefused() const override { return 0; }

    /** Gauges: receive-queue high-water mark. */
    void appendTelemetryGauges(std::vector<ArchGauge> &out)
        const override;

  private:
    sim::Task workerMain(sim::Process &p, int id);

    sim::Machine &machine_;
    net::Host &host_;
    SharedState &shared_;
    const ProxyConfig &cfg_;
    net::DatagramSocket *sock_ = nullptr;
    std::vector<std::unique_ptr<Engine>> engines_;
    /** One per process (workers + timer): see worker_loop.hh. */
    std::vector<std::unique_ptr<WorkerLoop>> loops_;
    std::unique_ptr<WorkerLoop> timerLoop_;
    bool stop_ = false;
};

} // namespace siprox::core

#endif // SIPROX_CORE_UDP_ARCH_HH
