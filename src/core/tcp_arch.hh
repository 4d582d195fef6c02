/**
 * @file
 * OpenSER's TCP architecture (paper §3.1, Figure 1): a single
 * supervisor process that accepts connections, assigns them to worker
 * processes, answers blocking file-descriptor requests over IPC, and
 * closes idle connections; plus N workers that own connections, frame
 * and process SIP messages, and request descriptors for every
 * connection they must write to.
 *
 * The knobs studied by the paper are all here:
 *  - ProxyConfig::fdCache        — §5.2 per-worker descriptor cache
 *  - ProxyConfig::idleStrategy   — §5.2 linear scan vs §5.3 priority
 *                                  queues
 *  - ProxyConfig::supervisorNice — §4.3 priority elevation
 *  - ProxyConfig::eventDrivenIpc — §6 non-blocking dispatch (deadlock
 *                                  fix)
 *  - ProxyConfig::concurrency    — §6 multithreaded variant: workers
 *                                  share one descriptor table, so no
 *                                  fd-passing IPC exists at all
 *
 * Workers hold their connections in an OwnedConns set and read them
 * with readFrames() (core/transport_io.hh), as the event-driven loops
 * do; a worker's poll cursor advances by the ready item's index. What
 * the paper varies stays here: fd requests and the fd cache, returning
 * connections to the supervisor, accept/dispatch, and the idle scans.
 */

#ifndef SIPROX_CORE_TCP_ARCH_HH
#define SIPROX_CORE_TCP_ARCH_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/arch.hh"
#include "core/config.hh"
#include "core/engine.hh"
#include "core/ipc_msg.hh"
#include "core/shared.hh"
#include "core/transport_io.hh"
#include "core/worker_loop.hh"
#include "net/network.hh"
#include "net/tcp.hh"
#include "sim/channel.hh"
#include "sim/machine.hh"

namespace siprox::core {

// These message types travel by value into coroutines and carry
// move-only descriptors; SIPROX_IPC_MSG_LIFECYCLE keeps them
// non-aggregate (see ipc_msg.hh for the GCC 12 story).

/** Supervisor -> worker: a newly accepted connection. */
struct NewConnMsg
{
    std::uint64_t connId = 0;
    /** The worker's descriptor (its read side, in both concurrency
     *  models; thread mode writes through the shared table's). */
    net::TcpConn fd;

    SIPROX_IPC_MSG_LIFECYCLE(NewConnMsg);

    NewConnMsg(std::uint64_t conn_id, net::TcpConn conn)
        : connId(conn_id), fd(std::move(conn))
    {
    }
};

/** Supervisor -> worker: answer to a descriptor request. */
struct FdRespMsg
{
    std::uint64_t connId = 0;
    bool ok = false;
    net::TcpConn fd;

    SIPROX_IPC_MSG_LIFECYCLE(FdRespMsg);
};

/** Worker -> supervisor requests. */
struct ReqMsg
{
    enum class Kind
    {
        FdRequest,
        ConnReturned,
        RegisterConn, ///< worker-opened outbound connection
    };

    Kind kind = Kind::FdRequest;
    int worker = -1;
    std::uint64_t connId = 0;
    net::TcpConn fd; ///< supervisor's copy, for RegisterConn

    SIPROX_IPC_MSG_LIFECYCLE(ReqMsg);

    ReqMsg(Kind k, int w, std::uint64_t conn_id, net::TcpConn conn)
        : kind(k), worker(w), connId(conn_id), fd(std::move(conn))
    {
    }
};

/**
 * The supervisor/worker TCP proxy.
 */
class TcpArch final : public ServerArch
{
  public:
    TcpArch(sim::Machine &machine, net::Host &host, SharedState &shared,
            const ProxyConfig &cfg);
    ~TcpArch() override;

    void start() override;
    void requestStop() override { stop_ = true; }

    ArchKind kind() const override { return ArchKind::SupervisorWorker; }
    int loopCount() const override { return cfg_.workers; }

    /** Depth of the worker->supervisor request queue (diagnostics). */
    std::size_t requestQueueDepth() const override;

    /** Depth of the listener's kernel accept queue (sampling). */
    std::size_t acceptBacklogDepth() const;

    std::size_t
    recvQueueDepth() const override
    {
        return acceptBacklogDepth();
    }

    /** No receive-queue overflow exists here: kernel flow control
     *  pushes back on senders instead of dropping. */
    std::uint64_t recvQueueDrops() const override { return 0; }

    /** SYNs the kernel refused because the accept queue was full. */
    std::uint64_t acceptRefused() const override;

    /** Gauges: owned connections, fd-cache entries, pending
     *  dispatches (event-driven IPC backlog). */
    void appendTelemetryGauges(std::vector<ArchGauge> &out)
        const override;

  private:
    struct Worker
    {
        int id = -1;
        /** Connections this worker reads, with their framers. */
        OwnedConns owned;
        /** §5.2 fd cache: descriptors for other workers' connections. */
        std::unordered_map<std::uint64_t, net::TcpConn> fdCache;
        /** §5.3: local priority queue over owned connections. */
        IdlePq localPq;
        std::unique_ptr<sim::Channel<NewConnMsg>> dispatch;
        std::unique_ptr<sim::Channel<FdRespMsg>> resp;
        std::unique_ptr<Engine> engine;
        std::unique_ptr<WorkerLoop> loop;
        sim::SimTime nextScan = 0;
        int rrCursor = 0;
    };

    // --- worker side ------------------------------------------------------
    sim::Task workerMain(sim::Process &p, int id);
    sim::Task workerInstallConn(sim::Process &p, Worker &w,
                                NewConnMsg msg);
    sim::Task workerReadConn(sim::Process &p, Worker &w,
                             std::uint64_t conn_id);
    sim::Task workerSend(sim::Process &p, Worker &w, SendAction action);
    sim::Task workerSendThreadMode(sim::Process &p, Worker &w,
                                   SendAction action);
    sim::Task workerOutboundConnect(sim::Process &p, Worker &w,
                                    SendAction action);
    sim::Task workerCloseConn(sim::Process &p, Worker &w,
                              std::uint64_t conn_id, bool dead);
    sim::Task workerIdleScan(sim::Process &p, Worker &w);

    // --- supervisor side ---------------------------------------------------
    sim::Task supervisorMain(sim::Process &p);
    sim::Task supervisorAccept(sim::Process &p, net::TcpConn conn);
    sim::Task supervisorHandleRequest(sim::Process &p, ReqMsg req);
    sim::Task supervisorDispatch(sim::Process &p, int worker,
                                 NewConnMsg msg);
    sim::Task supervisorIdleScan(sim::Process &p);
    sim::Task supervisorFlushPending(sim::Process &p, int worker);

    /** Destroy a connection object (lock must be held). */
    void destroyLocked(TcpConnObj &obj);

    sim::Task timerMain(sim::Process &p);

    bool threadMode() const
    {
        return cfg_.concurrency == ConcurrencyModel::Thread;
    }

    sim::Machine &machine_;
    net::Host &host_;
    SharedState &shared_;
    const ProxyConfig &cfg_;
    net::TcpListener *listener_ = nullptr;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::unique_ptr<sim::Channel<ReqMsg>> reqChan_;
    /** Event-driven IPC: dispatches waiting for channel space. */
    std::vector<std::deque<NewConnMsg>> pendingDispatch_;
    int rrNext_ = 0;
    bool stop_ = false;

    sim::CostCenterId ccFdReq_;
    sim::CostCenterId ccIpc_;
    sim::CostCenterId ccTcpMain_;
    sim::CostCenterId ccScan_;
    sim::CostCenterId ccConnHash_;
    sim::CostCenterId ccPoll_;
    sim::CostCenterId ccKernAccept_;
    sim::CostCenterId ccKernClose_;
};

} // namespace siprox::core

#endif // SIPROX_CORE_TCP_ARCH_HH
