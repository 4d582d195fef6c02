/**
 * @file
 * Receive-loop scaffolding shared by every server architecture.
 *
 * Every architecture wraps the same sequence around each received
 * message: opening a causal span, running the Engine, and transmitting
 * the SendActions it emits. Stream transports (supervisor/worker TCP,
 * event-driven loops over TCP/TLS) go through dispatch(), which takes
 * the architecture-specific transmit step as a callable. Datagram
 * transports (symmetric workers, event-driven loops over UDP/SCTP/SST)
 * receive in batches of up to NetConfig::batchMax messages — one
 * message at the default of 1 — and go through dispatchCollect(),
 * which also logs the message, feeds the overload controller's
 * queue-depth signal, and flushes the batch's replies through one
 * sendBatch.
 *
 * The timer-process bodies (the symmetric-worker and event-driven timer
 * loop, terminated-transaction reclamation and the datagram
 * retransmission walk) are equally architecture-independent and live
 * here too.
 *
 * One WorkerLoop per *process*: both dispatch paths reuse a member
 * SendAction vector (the parse+forward hot path is
 * allocation-budgeted), so an instance must never be shared between
 * processes that can interleave at co_await points.
 */

#ifndef SIPROX_CORE_WORKER_LOOP_HH
#define SIPROX_CORE_WORKER_LOOP_HH

#include <string>
#include <utility>
#include <vector>

#include "core/config.hh"
#include "core/engine.hh"
#include "core/shared.hh"
#include "net/datagram.hh"
#include "sim/process.hh"
#include "sim/task.hh"
#include "sim/trace.hh"

namespace siprox::core {

class WorkerLoop
{
  public:
    WorkerLoop(SharedState &shared, const ProxyConfig &cfg,
               Engine &engine)
        : shared_(shared), cfg_(cfg), engine_(engine)
    {
    }

    WorkerLoop(const WorkerLoop &) = delete;
    WorkerLoop &operator=(const WorkerLoop &) = delete;

    Engine &engine() { return engine_; }

    /**
     * Process one message read from a stream: open a causal span
     * covering the engine work and every transmission it triggers, run
     * the Engine, then hand each SendAction to @p send (a callable
     * returning a sim::Task, e.g. a lambda that merely calls a named
     * coroutine — see the lifetime rule in sim/task.hh).
     */
    template <typename SendFn>
    sim::Task
    dispatch(sim::Process &p, std::string raw, MsgSource src,
             SendFn send)
    {
        sim::SpanScope span(p);
        actions_.clear();
        co_await engine_.handleMessage(p, std::move(raw), src,
                                       actions_);
        for (auto &action : actions_)
            co_await send(p, std::move(action));
    }

    /**
     * Process one datagram of a batch drained from @p sock (recvBatch
     * or tryRecvBatch): log it, set the overload controller's
     * occupancy to what is still queued in the kernel plus the @p left
     * messages of the batch not yet dispatched (so the admission
     * signal is batching-invariant), and run the Engine inside a
     * causal span. The SendActions it emits join @p outbox; the
     * batch's last message (@p left == 0) flushes the outbox through
     * one sendBatch() inside its own span, so a one-message batch's
     * span covers every transmission it triggered.
     *
     * @param batch_size Size of the batch; spans of multi-message
     *        batches carry it as the `batched` trace attribute.
     * @param left Messages of the batch still to dispatch after this
     *        one.
     */
    sim::Task
    dispatchCollect(sim::Process &p, net::DatagramSocket &sock,
                    net::Datagram dgram,
                    std::vector<net::OutDatagram> &outbox,
                    std::size_t batch_size, std::size_t left)
    {
        if (sim::trace::enabled()) {
            sim::trace::log(p.sim().now(), "proxy-rx",
                            dgram.src.toString() + " "
                                + std::to_string(dgram.payload.size())
                                + "B");
        }
        shared_.overload.noteDrainedBatch(sock.queueDepth(), left);
        sim::SpanScope span(p);
        if (batch_size > 1) {
            if (auto *ctx = span.ctx())
                ctx->batchDepth = static_cast<std::uint32_t>(batch_size);
        }
        actions_.clear();
        co_await engine_.handleMessage(p, std::move(dgram.payload),
                                       MsgSource{dgram.src, 0}, actions_);
        for (auto &action : actions_)
            outbox.push_back(net::OutDatagram{
                action.dstAddr, std::move(action.wire)});
        if (left == 0)
            co_await sock.sendBatch(p, outbox);
    }

    /**
     * Reclaim terminated transaction records (every architecture's
     * timer process runs this each tick). Static: the TCP timer has no
     * engine of its own and this touches only the shared tables.
     *
     * @param now The cleanup horizon; pass sim::kTimeNever to sample
     *        the clock *after* the table lock is acquired (the TCP
     *        timer's historical behaviour — lock waits advance time).
     */
    static sim::Task reclaimTxns(sim::Process &p, SharedState &shared,
                                 const ProxyConfig &cfg,
                                 sim::SimTime now = sim::kTimeNever);

    /**
     * The timer process of the symmetric-worker and event-driven
     * architectures: every ProxyConfig::timerTick until @p stop is
     * set, reclaim terminated transactions and, when @p sock is given
     * (datagram transports), run datagramTimerTick() on it. Both steps
     * share the tick's horizon, sampled when the sleep ends.
     */
    sim::Task timerMain(sim::Process &p, const bool &stop,
                        net::DatagramSocket *sock);

    /**
     * One datagram timer tick past the transaction reclaim: walk the
     * global retransmission list (§3.2), resend due messages on
     * @p sock, and answer Timer B/F expiries with 408 via the engine.
     *
     * @param now The tick's time horizon, sampled once when the tick
     *        began (CPU charges during the tick advance the clock; the
     *        due-set must not shift mid-walk).
     */
    sim::Task datagramTimerTick(sim::Process &p,
                                net::DatagramSocket &sock,
                                sim::SimTime now);

  private:
    SharedState &shared_;
    const ProxyConfig &cfg_;
    Engine &engine_;
    /** Reused across messages: the hot path is allocation-budgeted. */
    std::vector<SendAction> actions_;
};

} // namespace siprox::core

#endif // SIPROX_CORE_WORKER_LOOP_HH
