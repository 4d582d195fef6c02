/**
 * @file
 * Batched datagram I/O (recvmmsg/sendmmsg model): digest pinning at
 * batchMax=1, determinism at batchMax>1, batch-depth histogram
 * integrity, the event-driven architecture accepting batching on every
 * transport, socket-level recvBatch semantics (including wake
 * suppression), and the overload controller counting a drained batch
 * as its packet count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "core/arch.hh"
#include "core/overload.hh"
#include "core/shared.hh"
#include "net_fixture.hh"
#include "workload/scenario.hh"

namespace {

using namespace siprox;
using namespace siprox::workload;
using core::ArchKind;
using core::Transport;

Scenario
smallScenario(Transport transport, ArchKind arch, int batch_max,
              std::uint64_t seed)
{
    Scenario sc;
    sc.proxy.transport = transport;
    sc.proxy.arch = arch;
    sc.proxy.workers = 6;
    sc.clients = 4;
    sc.callsPerClient = 6;
    sc.opsPerConn = core::isStreamTransport(transport) ? 4 : 0;
    sc.clientMachines = 2;
    sc.maxDuration = sim::secs(60);
    sc.seed = seed;
    sc.net.batchMax = batch_max;
    // Seed-dependent jitter (fault RNG) so different-seed digests can
    // actually differ — same trick as the arch matrix.
    LinkFault lf;
    lf.imp.jitter = sim::msecs(2);
    sc.linkFaults.push_back(lf);
    return sc;
}

// batchMax=1 must be the pre-batching simulation bit for bit (one-message
// batches through the same receive loop): same digest as
// an untouched scenario (the pre-batching goldens are pinned separately
// in test_digest_golden.cc) and no batch counter group in the digest.
TEST(Batching, BatchMaxOneIsByteIdenticalAndGroupless)
{
    Scenario legacy =
        smallScenario(Transport::Udp, ArchKind::Auto, 1, 7);
    Scenario untouched = legacy;
    untouched.net = net::NetConfig{};
    untouched.net.batchMax = 1; // the default; spelled out for clarity

    RunResult a = runScenario(legacy);
    RunResult b = runScenario(untouched);
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.digest().find("batchRecvCalls"), std::string::npos);
    EXPECT_EQ(a.net.batchRecv.calls, 0u);
    EXPECT_EQ(a.net.batchSend.calls, 0u);
}

// batchMax>1 changes the simulation (fewer, cheaper syscalls) but must
// stay deterministic: reruns byte-identical, different seeds different.
TEST(Batching, BatchedRunsDeterministicPerSeed)
{
    RunResult a = runScenario(
        smallScenario(Transport::Udp, ArchKind::Auto, 8, 7));
    RunResult a2 = runScenario(
        smallScenario(Transport::Udp, ArchKind::Auto, 8, 7));
    RunResult other_seed = runScenario(
        smallScenario(Transport::Udp, ArchKind::Auto, 8, 8));
    RunResult unbatched = runScenario(
        smallScenario(Transport::Udp, ArchKind::Auto, 1, 7));

    EXPECT_EQ(a.digest(), a2.digest());
    EXPECT_NE(a.digest(), other_seed.digest());
    EXPECT_NE(a.digest(), unbatched.digest());

    // The batched run still completes the full workload.
    EXPECT_EQ(a.callsCompleted, 4u * 6u);
    EXPECT_EQ(a.callsFailed, 0u);
    EXPECT_GT(a.net.batchRecv.calls, 0u);
    // Depth >1 needs a backlog; at this scale the workers usually keep
    // up, so only the cap is load-independent (the event-driven grid
    // test below does assert real multi-message batches).
    EXPECT_GE(a.net.batchRecv.maxDepth, 1u);
    EXPECT_LE(a.net.batchRecv.maxDepth, 8u);
}

// The depth histogram must account for every batch and every packet:
// bucket counts sum to the syscall count, weighted counts sum to the
// message count, and the proxy's batched receive path carried exactly
// the messages the engine processed.
TEST(Batching, DepthHistogramSumsMatchPacketCounts)
{
    RunResult r = runScenario(
        smallScenario(Transport::Udp, ArchKind::SymmetricWorker, 8, 7));

    for (const net::BatchIoStats *s :
         {&r.net.batchRecv, &r.net.batchSend}) {
        std::uint64_t calls = 0;
        std::uint64_t messages = 0;
        for (std::size_t i = 0; i < net::BatchIoStats::kDepthBuckets;
             ++i) {
            calls += s->depth[i];
            messages += s->depth[i] * (i + 1);
        }
        EXPECT_EQ(calls, s->calls);
        EXPECT_EQ(messages, s->messages);
    }
    EXPECT_GT(r.net.batchRecv.messages, 0u);
    EXPECT_EQ(r.net.batchRecv.messages, r.counters.messagesIn);
}

// Grid cell: the event-driven architecture accepts batchMax=8 on all
// five transports. Datagram transports take the batched drain; stream
// transports (no datagram socket) must simply be unaffected —
// byte-identical to their batchMax=1 run.
TEST(Batching, EventArchAcceptsBatchingOnAllTransports)
{
    for (Transport t : {Transport::Udp, Transport::Tcp, Transport::Tls,
                        Transport::Sctp, Transport::Sst}) {
        SCOPED_TRACE(core::transportName(t));
        RunResult batched = runScenario(
            smallScenario(t, ArchKind::EventDriven, 8, 7));
        EXPECT_FALSE(batched.timedOut);
        EXPECT_EQ(batched.callsCompleted, 4u * 6u);
        EXPECT_EQ(batched.callsFailed, 0u);
        if (core::isStreamTransport(t)) {
            RunResult plain = runScenario(
                smallScenario(t, ArchKind::EventDriven, 1, 7));
            EXPECT_EQ(batched.digest(), plain.digest());
            EXPECT_EQ(batched.net.batchRecv.calls, 0u);
        } else {
            EXPECT_GT(batched.net.batchRecv.calls, 0u);
            EXPECT_GT(batched.net.batchRecv.maxDepth, 1u);
        }
    }
}

// Overload regression: a drained batch must register as its packet
// count, not one event — otherwise a worker holding 50 undispatched
// messages reads as an almost-empty queue and panic/shed thresholds
// fire far too late under batching.
TEST(Batching, OverloadCountsDrainedBatchAsPackets)
{
    core::OverloadConfig cfg;
    cfg.policy = core::OverloadPolicy::ThresholdReject;
    cfg.recvQueueCapacity = 100;
    cfg.panicWatermark = 0.5;

    core::ProxyCounters counters;
    core::OverloadController ctl;
    ctl.configure(cfg, nullptr, &counters);

    ctl.noteQueueDepth(30);
    EXPECT_FALSE(ctl.queuePanicked());

    // 30 still queued behind + 25 drained into the worker's batch:
    // occupancy is 55%, past the 50% watermark.
    ctl.noteDrainedBatch(30, 25);
    EXPECT_TRUE(ctl.queuePanicked());

    // The in-hand share alone decides here: same backlog, batch fully
    // processed, back under the watermark.
    ctl.noteDrainedBatch(30, 0);
    EXPECT_FALSE(ctl.queuePanicked());
}

// Socket-level semantics: recvBatch drains at most batchMax, preserves
// order, records one batch-stat entry per syscall, and wake suppression
// loses no messages when many receivers block on one socket.
using BatchSocketTest = siprox::tests::NetFixture;

sim::Task
sendMany(sim::Process &p, net::UdpSocket *sock, net::Addr dst, int n)
{
    for (int i = 0; i < n; ++i)
        co_await sock->sendTo(p, dst, "m" + std::to_string(i));
}

sim::Task
drainInto(sim::Process &p, net::UdpSocket *sock, int total, int bmax,
          std::vector<std::string> *out, std::size_t *max_depth)
{
    std::vector<net::Datagram> batch;
    while (static_cast<int>(out->size()) < total) {
        co_await sock->recvBatch(p, batch, bmax);
        if (batch.size() > *max_depth)
            *max_depth = batch.size();
        for (auto &d : batch)
            out->push_back(std::move(d.payload));
    }
}

TEST_F(BatchSocketTest, RecvBatchDrainsUpToCapInOrder)
{
    net.config().batchMax = 4;
    auto &ssock = server.udpBind(5060);
    auto &csock = client.udpBind(9000);

    std::vector<std::string> got;
    std::size_t max_depth = 0;
    serverMachine.spawn("rx", 0, [&](sim::Process &p) {
        return drainInto(p, &ssock, 10, 4, &got, &max_depth);
    });
    clientMachine.spawn("tx", 0, [&](sim::Process &p) {
        return sendMany(p, &csock, server.addr(5060), 10);
    });
    sim.run();

    ASSERT_EQ(got.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(got[static_cast<std::size_t>(i)],
                  "m" + std::to_string(i));
    EXPECT_LE(max_depth, 4u);
    EXPECT_EQ(net.stats().batchRecv.messages, 10u);
    std::uint64_t bucket_calls = 0;
    for (std::size_t i = 0; i < net::BatchIoStats::kDepthBuckets; ++i)
        bucket_calls += net.stats().batchRecv.depth[i];
    EXPECT_EQ(bucket_calls, net.stats().batchRecv.calls);
}

TEST_F(BatchSocketTest, WakeSuppressionLosesNoMessages)
{
    net.config().batchMax = 8;
    auto &ssock = server.udpBind(5060);
    auto &csock = client.udpBind(9000);

    // Three receivers share the socket; wake suppression should leave
    // most of them asleep while one drains, but every message must
    // still come out exactly once.
    std::vector<std::string> got;
    std::size_t max_depth = 0;
    for (int w = 0; w < 3; ++w) {
        serverMachine.spawn("rx" + std::to_string(w), 0,
                            [&](sim::Process &p) {
                                return drainInto(p, &ssock, 24, 8, &got,
                                                 &max_depth);
                            });
    }
    clientMachine.spawn("tx", 0, [&](sim::Process &p) {
        return sendMany(p, &csock, server.addr(5060), 24);
    });
    sim.run();

    ASSERT_EQ(got.size(), 24u);
    std::vector<std::string> sorted = got;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end())
        << "a message was delivered twice";
    EXPECT_EQ(net.stats().batchRecv.messages, 24u);
}

} // namespace
