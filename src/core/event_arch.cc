#include "core/event_arch.hh"

#include "net/error.hh"
#include "sim/pollable.hh"
#include "sim/simulation.hh"

namespace siprox::core {

EventArch::EventArch(sim::Machine &machine, net::Host &host,
                     SharedState &shared, const ProxyConfig &cfg)
    : machine_(machine), host_(host), shared_(shared), cfg_(cfg),
      ccPoll_(sim::CostCenters::id("ser:io_wait")),
      ccConnHash_(sim::CostCenters::id("ser:tcpconn_hash")),
      ccScan_(sim::CostCenters::id("ser:tcpconn_timeout")),
      ccKernAccept_(sim::CostCenters::id("kernel:tcp_accept"))
{
}

EventArch::~EventArch() = default;

void
EventArch::start()
{
    if (tcpMode())
        listener_ = &host_.tcpListen(cfg_.port);
    else
        sock_ = &bindDatagram(host_, cfg_.transport, cfg_.port);
    // One loop per core: the whole design premise. cfg_.workers is
    // deliberately ignored (documented on ArchKind::EventDriven).
    int n = machine_.scheduler().cores();
    if (n < 1)
        n = 1;
    net::Addr addr = host_.addr(cfg_.port);
    for (int i = 0; i < n; ++i) {
        auto l = std::make_unique<Loop>();
        l->id = i;
        l->engine = std::make_unique<Engine>(shared_, cfg_, addr, i);
        l->wloop = std::make_unique<WorkerLoop>(shared_, cfg_,
                                               *l->engine);
        loops_.push_back(std::move(l));
        machine_.spawn("ev_loop" + std::to_string(i), 0,
                       [this, i](sim::Process &p) {
                           return tcpMode() ? loopMain(p, i)
                                            : loopMainDatagram(p, i);
                       });
    }
    timerLoop_ = std::make_unique<WorkerLoop>(shared_, cfg_,
                                              *loops_[0]->engine);
    machine_.spawn("timer", 0, [this](sim::Process &p) {
        return timerLoop_->timerMain(p, stop_, sock_);
    });
}

std::size_t
EventArch::recvQueueDepth() const
{
    if (listener_)
        return listener_->backlogDepth();
    return sock_ ? sock_->queueDepth() : 0;
}

std::uint64_t
EventArch::recvQueueDrops() const
{
    return sock_ ? sock_->overflowDrops() : 0;
}

std::uint64_t
EventArch::acceptRefused() const
{
    return listener_ ? listener_->backlogRefused() : 0;
}

void
EventArch::appendTelemetryGauges(std::vector<ArchGauge> &out) const
{
    std::size_t owned = 0, peer_fds = 0, busy = 0;
    for (const auto &l : loops_) {
        owned += l->owned.size();
        peer_fds += l->peerFds.size();
        busy += l->busy.size();
    }
    out.push_back({"arch.ownedConns", static_cast<double>(owned)});
    out.push_back({"arch.peerFds", static_cast<double>(peer_fds)});
    out.push_back({"arch.busyConns", static_cast<double>(busy)});
    if (sock_) {
        out.push_back({"arch.recvQueuePeak",
                       static_cast<double>(sock_->queuePeak())});
    }
}

// ---------------------------------------------------------------------------
// TCP readiness loop
// ---------------------------------------------------------------------------

sim::Task
EventArch::loopMain(sim::Process &p, int id)
{
    Loop &l = *loops_[static_cast<std::size_t>(id)];
    l.nextScan = p.sim().now() + kIdleScanInterval;
    std::vector<sim::Pollable *> items;
    std::vector<std::uint64_t> item_conn; // 0 = listener slot
    std::vector<int> ready;
    while (!stop_) {
        shared_.overload.noteQueueDepth(listener_->backlogDepth());
        const bool reads_paused =
            shared_.overload.tcpReadsPaused(p.sim().now());
        const bool accepts_paused =
            shared_.overload.acceptsPaused(p.sim().now());
        items.clear();
        item_conn.clear();
        if (!accepts_paused) {
            items.push_back(listener_);
            item_conn.push_back(0);
        }
        const int n = static_cast<int>(l.owned.size());
        if (!reads_paused)
            l.owned.pollSet(l.rrCursor, items, item_conn);
        sim::SimTime timeout = l.nextScan - p.sim().now();
        if ((reads_paused || accepts_paused)
            && cfg_.overload.pauseSlice < timeout)
            timeout = cfg_.overload.pauseSlice;
        if (timeout < 0)
            timeout = 0;
        // Nothing of ours ready and we would block: take one ready
        // connection from a backlogged sibling instead of idling.
        if (timeout > 0 && !reads_paused) {
            bool any_ready = false;
            for (sim::Pollable *item : items) {
                if (item->pollReady()) {
                    any_ready = true;
                    break;
                }
            }
            if (!any_ready) {
                bool stole = false;
                co_await loopSteal(p, l, &stole);
                if (stole)
                    continue;
            }
        }
        co_await sim::poll(p, items, timeout, ready);
        if (stop_)
            break;
        co_await p.cpu(cfg_.costs.pollOverhead, ccPoll_);
        if (n > 0 && !ready.empty())
            l.rrCursor = (l.rrCursor + 1) % n;
        for (int idx : ready) {
            std::uint64_t cid =
                item_conn[static_cast<std::size_t>(idx)];
            if (cid == 0)
                co_await loopAccept(p, l, l.nextScan);
            else if (l.owned.find(cid)) // revalidate: batch-mates can
                co_await loopReadConn(p, l, cid); // retire each other
            if (stop_)
                co_return;
        }
        if (p.sim().now() >= l.nextScan) {
            co_await loopIdleScan(p, l);
            l.nextScan = p.sim().now() + kIdleScanInterval;
        }
    }
}

sim::Task
EventArch::loopAccept(sim::Process &p, Loop &l, sim::SimTime until)
{
    // Drain, but never past the idle tick (as OpenSER's main loop
    // re-checks its timers every iteration).
    net::TcpConn conn;
    while (p.sim().now() < until && listener_->tryAccept(conn)) {
        co_await p.cpu(host_.net().config().tcpAcceptCost,
                       ccKernAccept_);
        co_await installConn(p, l, std::move(conn), /*accepted=*/true);
        if (stop_)
            co_return;
    }
}

sim::Task
EventArch::installConn(sim::Process &p, Loop &l, net::TcpConn conn,
                       bool accepted)
{
    std::uint64_t id = conn.id();
    auto obj = std::make_unique<TcpConnObj>();
    obj->id = id;
    obj->peer = conn.remote();
    obj->ownerWorker = l.id;
    obj->lastUse = p.sim().now();
    // Shared descriptor table: every loop can write via this duplicate
    // under the per-connection write lock. No fd passing, ever.
    obj->supFd = conn.dup();

    co_await shared_.conns.lock().acquire(p);
    co_await p.cpu(cfg_.costs.connInsert, ccConnHash_);
    shared_.conns.insert(std::move(obj));
    shared_.conns.lock().release();
    if (accepted)
        ++shared_.counters.connsAccepted;

    l.owned.add(id, std::move(conn));
    co_await p.cpu(cfg_.costs.pqOp, ccScan_);
    l.idlePq.push(p.sim().now() + cfg_.idleTimeout, id);
}

sim::Task
EventArch::loopReadConn(sim::Process &p, Loop &l, std::uint64_t conn_id)
{
    FramedConn *fc = l.owned.find(conn_id);
    if (!fc)
        co_return;
    // Pin against work stealing: the read below holds a reference
    // into this loop's owned set across suspension points.
    l.busy.insert(conn_id);
    // The lambdas merely call named coroutines (sim/task.hh rule).
    Loop *lp = &l;
    const MsgSource src{fc->conn.remote(), conn_id};
    StreamState state;
    co_await readFrames(
        p, [lp, conn_id] { return lp->owned.find(conn_id); },
        [this, lp, src](sim::Process &sp, std::string raw) {
            return lp->wloop->dispatch(
                sp, std::move(raw), src,
                [this, lp](sim::Process &ssp, SendAction action) {
                    return loopSend(ssp, *lp, std::move(action));
                });
        },
        &state, "proxy-rx");
    if (state == StreamState::Eof || state == StreamState::Poisoned) {
        // Close and destroy directly: there is no supervisor to return
        // the connection to.
        co_await l.owned.close(p, conn_id);
        co_await destroyConn(p, l, conn_id);
    } else if (state == StreamState::Open) {
        if (TcpConnObj *obj = shared_.conns.byId(conn_id))
            obj->lastUse = p.sim().now(); // dirty single-word store
    }
    l.busy.erase(conn_id);
}

sim::Task
EventArch::loopSend(sim::Process &p, Loop &l, SendAction action)
{
    // Fast path: this loop owns the connection — no locks at all.
    // Send on a cheap duplicate handle: a sibling may steal the map
    // entry while the send is suspended.
    if (action.dstConnId) {
        if (FramedConn *fc = l.owned.find(action.dstConnId)) {
            if (TcpConnObj *obj = shared_.conns.byId(action.dstConnId))
                obj->lastUse = p.sim().now(); // dirty write
            net::TcpConn fd = fc->conn.dup();
            co_await fd.send(p, std::move(action.wire));
            co_return;
        }
        // Cached duplicate of another loop's descriptor: still no
        // locks. Each loop writes its own handle, one atomic write
        // per SIP message; a destroyed connection makes the write a
        // silent drop, exactly as a real dup'd fd would.
        auto cit = l.peerFds.find(action.dstConnId);
        if (cit != l.peerFds.end()) {
            ++shared_.counters.fdCacheHits;
            co_await p.cpu(cfg_.costs.fdCacheHit, ccConnHash_);
            if (TcpConnObj *obj = shared_.conns.byId(action.dstConnId))
                obj->lastUse = p.sim().now(); // dirty write
            co_await cit->second.send(p, std::move(action.wire));
            co_return;
        }
    }

    // First touch of another loop's connection (or an address alias):
    // shared table lookup under the lock, dup the descriptor into the
    // per-loop cache, send on the private duplicate after release.
    co_await shared_.conns.lock().acquire(p);
    co_await p.cpu(cfg_.costs.connLookup, ccConnHash_);
    TcpConnObj *obj =
        shared_.conns.resolve(action.dstConnId, action.dstAddr);
    if (!obj) {
        shared_.conns.lock().release();
        co_await loopConnect(p, l, std::move(action));
        co_return;
    }
    if (FramedConn *fc = l.owned.find(obj->id)) {
        // Alias resolved to a connection we own after all.
        obj->lastUse = p.sim().now();
        shared_.conns.lock().release();
        net::TcpConn fd = fc->conn.dup();
        co_await fd.send(p, std::move(action.wire));
        co_return;
    }
    obj->lastUse = p.sim().now();
    if (obj->dead || !obj->supFd.valid()) {
        ++shared_.counters.sendsToDeadConns;
        shared_.conns.lock().release();
        co_return;
    }
    std::uint64_t id = obj->id;
    net::TcpConn fd = obj->supFd.dup();
    shared_.conns.lock().release();
    // Unscaled fdInstall: the per-loop fd table holds only this
    // loop's share of the connections, not all of them (§5.2's
    // fdTableScale penalty models the workers' full-table case).
    co_await p.cpu(cfg_.costs.fdInstall, ccConnHash_);
    auto cit = l.peerFds.insert_or_assign(id, std::move(fd)).first;
    co_await cit->second.send(p, std::move(action.wire));
}

sim::Task
EventArch::loopConnect(sim::Process &p, Loop &l, SendAction action)
{
    ++shared_.counters.outboundConnects;
    net::TcpConn conn;
    try {
        co_await connectStream(p, host_, cfg_.transport, action.dstAddr,
                               conn);
    } catch (const net::NetError &) {
        ++shared_.counters.sendsToDeadConns;
        co_return;
    }
    std::uint64_t id = conn.id();
    net::Addr dst = action.dstAddr;
    // Send on the local handle before installing: once installed the
    // connection is stealable and the owned entry must not be touched.
    co_await conn.send(p, std::move(action.wire));
    co_await installConn(p, l, std::move(conn), /*accepted=*/false);
    co_await shared_.conns.lock().acquire(p);
    shared_.conns.setAlias(dst, id);
    shared_.conns.lock().release();
}

sim::Task
EventArch::destroyConn(sim::Process &p, Loop &l, std::uint64_t conn_id)
{
    co_await shared_.conns.lock().acquire(p);
    co_await p.cpu(cfg_.costs.connLookup, ccConnHash_);
    TcpConnObj *obj = shared_.conns.byId(conn_id);
    if (!obj || obj->ownerWorker != l.id) {
        // Already gone, or stolen since this destroy was queued.
        shared_.conns.lock().release();
        co_return;
    }
    obj->dead = true;
    co_await p.cpu(cfg_.costs.connErase
                       + host_.net().config().tcpCloseCost,
                   ccScan_);
    obj->supFd.closeQuiet();
    shared_.conns.erase(conn_id); // frees the object
    ++shared_.counters.connsDestroyed;
    shared_.conns.lock().release();
}

sim::Task
EventArch::loopIdleScan(sim::Process &p, Loop &l)
{
    sim::SimTime now = p.sim().now();
    ++shared_.counters.idleScans;
    std::size_t visited = 0;
    while (!l.idlePq.empty() && l.idlePq.top().expireAt <= now) {
        std::uint64_t id = l.idlePq.top().id;
        l.idlePq.pop();
        ++visited;
        co_await p.cpu(cfg_.costs.pqOp, ccScan_);
        if (l.owned.find(id)) {
            l.busy.insert(id);
            co_await shared_.conns.lock().acquire(p);
            co_await p.cpu(cfg_.costs.connLookup, ccConnHash_);
            TcpConnObj *obj = shared_.conns.byId(id);
            sim::SimTime expire =
                obj ? obj->lastUse + cfg_.idleTimeout : 0;
            shared_.conns.lock().release();
            if (obj && expire > now) {
                co_await p.cpu(cfg_.costs.pqOp, ccScan_);
                l.idlePq.push(expire, id);
                l.busy.erase(id);
                continue;
            }
            co_await l.owned.close(p, id);
            l.busy.erase(id);
        }
        co_await destroyConn(p, l, id);
    }
    // Reap cached duplicates whose connection has since died (the
    // owning loop destroyed it, or the peer hung up); mirrors the
    // supervisor arch's stale-cache sweep.
    for (auto it = l.peerFds.begin(); it != l.peerFds.end();) {
        const auto &ep = it->second.endpoint();
        if (!it->second.valid() || !ep || ep->peerClosed()) {
            ++visited;
            ++shared_.counters.fdCacheInvalidations;
            co_await p.cpu(cfg_.costs.pqOp, ccScan_);
            it->second.closeQuiet();
            it = l.peerFds.erase(it);
        } else {
            ++it;
        }
    }
    shared_.counters.idleScanVisited += visited;
}

sim::Task
EventArch::loopSteal(sim::Process &p, Loop &l, bool *stole)
{
    *stole = false;
    // One sweep over the siblings' ready state: shared-memory reads,
    // modeled as a poll-scale scan.
    co_await p.cpu(cfg_.costs.pollOverhead, ccPoll_);
    const std::size_t nl = loops_.size();
    for (std::size_t off = 1; off < nl && !stop_; ++off) {
        Loop &v = *loops_[(static_cast<std::size_t>(l.id) + off) % nl];
        std::uint64_t cid = 0;
        for (std::uint64_t c : v.owned.order()) {
            if (v.busy.count(c))
                continue;
            const net::TcpConn &conn = v.owned.find(c)->conn;
            if (conn.valid() && conn.readable().pollReady()) {
                cid = c;
                break;
            }
        }
        if (!cid)
            continue;
        // Migrate descriptor, framer state, and idle tracking in one
        // step — no suspension points, so the move is atomic under
        // the cooperative scheduler. The victim revalidates its ready
        // batch against `owned` and skips the moved entry; its stale
        // idle-queue entry is ignored via the ownerWorker check.
        l.owned.adopt(v.owned, cid);
        if (TcpConnObj *obj = shared_.conns.byId(cid))
            obj->ownerWorker = l.id; // dirty write
        ++shared_.counters.connsStolen;
        co_await p.cpu(cfg_.costs.connLookup + cfg_.costs.pqOp,
                       ccScan_);
        l.idlePq.push(p.sim().now() + cfg_.idleTimeout, cid);
        co_await loopReadConn(p, l, cid);
        *stole = true;
        co_return;
    }
}

// ---------------------------------------------------------------------------
// Datagram readiness loop
// ---------------------------------------------------------------------------

sim::Task
EventArch::loopMainDatagram(sim::Process &p, int id)
{
    Loop &l = *loops_[static_cast<std::size_t>(id)];
    std::vector<sim::Pollable *> items{sock_};
    std::vector<int> ready;
    const int bmax = host_.net().config().batchMax;
    std::vector<net::Datagram> batch;
    std::vector<net::OutDatagram> outbox;
    while (!stop_) {
        co_await sim::poll(p, items, sim::kTimeNever, ready);
        if (stop_)
            break;
        co_await p.cpu(cfg_.costs.pollOverhead, ccPoll_);
        std::size_t bytes = 0;
        // The per-loop readiness drain, one recvmmsg-sized gulp (one
        // message at the default batchMax of 1) per batched kernel
        // charge; the blocking recvBatch path charges the same.
        while (sock_->tryRecvBatch(batch, bmax, bytes)) {
            co_await sock_->chargeRecvBatch(p, batch.size(), bytes);
            std::size_t left = batch.size();
            for (auto &dgram : batch) {
                co_await l.wloop->dispatchCollect(
                    p, *sock_, std::move(dgram), outbox, batch.size(),
                    --left);
                if (stop_)
                    co_return;
            }
        }
    }
}

} // namespace siprox::core
