#include "core/worker_loop.hh"

#include "sim/simulation.hh"

namespace siprox::core {

sim::Task
WorkerLoop::reclaimTxns(sim::Process &p, SharedState &shared,
                        const ProxyConfig &cfg, sim::SimTime now)
{
    static const auto cc_tm = sim::CostCenters::id("ser:tm");
    co_await shared.txns.lock().acquire(p);
    if (now == sim::kTimeNever)
        now = p.sim().now();
    std::size_t removed = shared.txns.cleanupExpired(now);
    if (removed) {
        co_await p.cpu(static_cast<sim::SimTime>(removed)
                           * cfg.costs.txnUpdate,
                       cc_tm);
    }
    shared.txns.lock().release();
}

sim::Task
WorkerLoop::timerMain(sim::Process &p, const bool &stop,
                      net::DatagramSocket *sock)
{
    while (!stop) {
        co_await p.sleepFor(cfg_.timerTick);
        if (stop)
            break;
        sim::SimTime now = p.sim().now();
        co_await reclaimTxns(p, shared_, cfg_, now);
        if (sock)
            co_await datagramTimerTick(p, *sock, now);
    }
}

sim::Task
WorkerLoop::datagramTimerTick(sim::Process &p, net::DatagramSocket &sock,
                              sim::SimTime now)
{
    static const auto cc_timer = sim::CostCenters::id("ser:timer");

    // Walk the global retransmission list (§3.2). The walk holds the
    // shared lock for its full duration, as OpenSER does.
    std::vector<RetransList::Due> due;
    std::vector<RetransList::TimedOut> timed_out;
    co_await shared_.retrans.lock().acquire(p);
    std::size_t visited = shared_.retrans.collectDue(now, due, timed_out);
    if (visited) {
        co_await p.cpu(static_cast<sim::SimTime>(visited)
                           * cfg_.costs.timerScanPerEntry,
                       cc_timer);
    }
    shared_.retrans.lock().release();

    shared_.counters.retransSent += due.size();
    for (auto &d : due)
        co_await sock.sendTo(p, d.dst, std::move(d.wire));

    // Timer B/F expiry: answer the caller with 408 and reclaim the
    // transaction so sustained loss cannot grow the table.
    for (auto &to : timed_out) {
        sim::SpanScope span(p);
        actions_.clear();
        co_await engine_.handleTimeout(p, to, &actions_);
        for (auto &action : actions_)
            co_await sock.sendTo(p, action.dstAddr,
                                 std::move(action.wire));
    }
}

} // namespace siprox::core
