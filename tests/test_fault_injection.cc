/**
 * @file
 * Tests for the link-level fault-injection subsystem: per-link
 * impairment policies (loss, duplication, reordering, delay,
 * partitions), TCP-specific faults (connect refusal, mid-stream RST,
 * stalled peer, in-kernel loss recovery), the FaultStats counters, and
 * seed-reproducible determinism of impaired scenario runs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net_fixture.hh"
#include "stats/fault_stats.hh"
#include "workload/scenario.hh"

namespace {

using namespace siprox;
using namespace siprox::sim;
using namespace siprox::net;
using siprox::tests::NetFixture;

// NetFixture attach order: server is host 1, client is host 2.
constexpr std::uint32_t kServer = 1;
constexpr std::uint32_t kClient = 2;

Task
sendN(Process &p, UdpSocket *sock, Addr dst, int n, std::string prefix)
{
    for (int i = 0; i < n; ++i)
        co_await sock->sendTo(p, dst, prefix + std::to_string(i));
}

Task
recvN(Process &p, UdpSocket *sock, int n, std::vector<Datagram> *out)
{
    for (int i = 0; i < n; ++i) {
        Datagram d;
        co_await sock->recvFrom(p, d);
        out->push_back(std::move(d));
    }
}

// --- FaultStats ------------------------------------------------------------

TEST(FaultStatsTest, TotalsSumAcrossLinks)
{
    stats::FaultStats fs;
    fs.link(1, 2).lost = 3;
    fs.link(1, 2).duplicated = 1;
    fs.link(2, 1).lost = 2;
    EXPECT_EQ(fs.linkCount(), 2u);
    EXPECT_EQ(fs.total().lost, 5u);
    EXPECT_EQ(fs.total().duplicated, 1u);
    ASSERT_NE(fs.find(1, 2), nullptr);
    EXPECT_EQ(fs.find(1, 2)->lost, 3u);
    EXPECT_EQ(fs.find(3, 4), nullptr);
}

TEST(FaultStatsTest, DigestIsCanonicalAndOrdered)
{
    stats::FaultStats a, b;
    // Touch links in opposite order: the digest must not care.
    a.link(2, 1).lost = 7;
    a.link(1, 2).offered = 5;
    b.link(1, 2).offered = 5;
    b.link(2, 1).lost = 7;
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_NE(a.digest().find("1>2"), std::string::npos);
    EXPECT_NE(a.digest().find("2>1"), std::string::npos);

    b.link(2, 1).lost = 8;
    EXPECT_NE(a.digest(), b.digest());
}

TEST(FaultStatsTest, EmptyTableRendersAndDigests)
{
    stats::FaultStats fs;
    EXPECT_TRUE(fs.empty());
    EXPECT_EQ(fs.digest(), "");
    fs.link(1, 2).offered = 1;
    EXPECT_FALSE(fs.empty());
    EXPECT_FALSE(fs.table().render().empty());
}

// --- Impairment policy bookkeeping ----------------------------------------

TEST(ImpairmentTest, TrivialDetectionAndEnableFlag)
{
    EXPECT_TRUE(Impairment{}.trivial());
    Impairment lossy;
    lossy.lossProb = 0.1;
    EXPECT_FALSE(lossy.trivial());

    FaultInjector inj(1);
    EXPECT_FALSE(inj.enabled());
    inj.setLink(1, 2, Impairment{}); // trivial: stays disabled
    EXPECT_FALSE(inj.enabled());
    inj.setLink(1, 2, lossy);
    EXPECT_TRUE(inj.enabled());
}

TEST(ImpairmentTest, LookupPrefersLinkOverDefault)
{
    FaultInjector inj(1);
    Impairment def;
    def.extraDelay = msecs(1);
    inj.setDefault(def);
    Impairment special;
    special.lossProb = 0.5;
    inj.setLink(1, 2, special);
    EXPECT_EQ(inj.lookup(1, 2).lossProb, 0.5);
    EXPECT_EQ(inj.lookup(1, 2).extraDelay, 0);
    EXPECT_EQ(inj.lookup(2, 1).extraDelay, msecs(1));
    EXPECT_TRUE(inj.enabled());
}

TEST(ImpairmentTest, PartitionWindowsAreTwoWayAndTimed)
{
    FaultInjector inj(1);
    inj.addPartition(1, 2, msecs(10), msecs(20));
    EXPECT_FALSE(inj.partitioned(1, 2, msecs(5)));
    EXPECT_TRUE(inj.partitioned(1, 2, msecs(10)));
    EXPECT_TRUE(inj.partitioned(2, 1, msecs(15)));
    EXPECT_FALSE(inj.partitioned(1, 2, msecs(20)));
    // Other links are unaffected.
    EXPECT_FALSE(inj.partitioned(1, 3, msecs(15)));
}

TEST(ImpairmentTest, SameSeedSameVerdicts)
{
    Impairment imp;
    imp.lossProb = 0.3;
    imp.dupProb = 0.2;
    imp.jitter = msecs(5);
    auto roll = [&](std::uint64_t seed) {
        FaultInjector inj(seed);
        inj.setLink(1, 2, imp);
        std::string trace;
        for (int i = 0; i < 200; ++i) {
            auto v = inj.onDatagram(0, 1, 2);
            trace += v.drop ? 'd' : (v.copies > 1 ? '2' : '.');
            trace += std::to_string(v.extraDelay);
        }
        return trace;
    };
    EXPECT_EQ(roll(42), roll(42));
    EXPECT_NE(roll(42), roll(43));
}

// --- UDP datagram faults ---------------------------------------------------

TEST_F(NetFixture, UdpLossAppliesToOneDirectionOnly)
{
    Impairment imp;
    imp.lossProb = 0.5;
    net.faults().setLink(kClient, kServer, imp);

    auto &ssock = server.udpBind(5060);
    auto &csock = client.udpBind(9000);
    clientMachine.spawn("tx", 0, [&](Process &p) {
        return sendN(p, &csock, server.addr(5060), 1000, "x");
    });
    sim.run();
    const auto *up = net.faults().stats().find(kClient, kServer);
    ASSERT_NE(up, nullptr);
    EXPECT_NEAR(static_cast<double>(up->lost) / 1000.0, 0.5, 0.07);
    EXPECT_EQ(net.stats().udpDelivered + net.stats().udpLost, 1000u);

    // The reverse direction is clean.
    std::uint64_t delivered_before = net.stats().udpDelivered;
    serverMachine.spawn("tx2", 0, [&](Process &p) {
        return sendN(p, &ssock, client.addr(9000), 100, "y");
    });
    sim.run();
    EXPECT_EQ(net.stats().udpDelivered, delivered_before + 100);
    // The reverse link was consulted (offered counts) but untouched.
    const auto *down = net.faults().stats().find(kServer, kClient);
    ASSERT_NE(down, nullptr);
    EXPECT_EQ(down->offered, 100u);
    EXPECT_EQ(down->lost, 0u);
}

TEST_F(NetFixture, UdpDuplicationDeliversTwice)
{
    Impairment imp;
    imp.dupProb = 1.0;
    net.faults().setLink(kClient, kServer, imp);

    server.udpBind(5060);
    auto &csock = client.udpBind(9000);
    clientMachine.spawn("tx", 0, [&](Process &p) {
        return sendN(p, &csock, server.addr(5060), 10, "x");
    });
    sim.run();
    EXPECT_EQ(net.stats().udpSent, 10u);
    EXPECT_EQ(net.stats().udpDelivered, 20u);
    EXPECT_EQ(net.faults().stats().find(kClient, kServer)->duplicated,
              10u);
}

TEST_F(NetFixture, UdpExtraDelayPostponesDelivery)
{
    Impairment imp;
    imp.extraDelay = msecs(50);
    net.faults().setLink(kClient, kServer, imp);

    auto &ssock = server.udpBind(5060);
    auto &csock = client.udpBind(9000);
    std::vector<Datagram> got;
    SimTime arrived = 0;
    serverMachine.spawn("rx", 0, [&](Process &p) -> Task {
        struct Body
        {
            static Task
            run(Process &p, UdpSocket *sock, std::vector<Datagram> *out,
                SimTime *at)
            {
                co_await recvN(p, sock, 1, out);
                *at = p.sim().now();
            }
        };
        return Body::run(p, &ssock, &got, &arrived);
    });
    clientMachine.spawn("tx", 0, [&](Process &p) {
        return sendN(p, &csock, server.addr(5060), 1, "x");
    });
    sim.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_GE(arrived, msecs(50));
    EXPECT_EQ(net.stats().faultDelayed, 1u);
}

TEST_F(NetFixture, UdpReorderingScramblesButDeliversAll)
{
    Impairment imp;
    imp.reorderProb = 1.0;
    imp.reorderWindow = msecs(30);
    net.faults().setLink(kClient, kServer, imp);

    auto &ssock = server.udpBind(5060);
    auto &csock = client.udpBind(9000);
    std::vector<Datagram> got;
    serverMachine.spawn("rx", 0, [&](Process &p) {
        return recvN(p, &ssock, 50, &got);
    });
    clientMachine.spawn("tx", 0, [&](Process &p) {
        return sendN(p, &csock, server.addr(5060), 50, "m");
    });
    sim.run();
    ASSERT_EQ(got.size(), 50u);
    bool in_order = true;
    for (int i = 0; i < 50; ++i) {
        if (got[static_cast<std::size_t>(i)].payload
            != "m" + std::to_string(i))
            in_order = false;
    }
    EXPECT_FALSE(in_order);
    EXPECT_GT(net.faults().stats().find(kClient, kServer)->reordered,
              0u);
}

TEST_F(NetFixture, UdpPartitionDropsOnlyInsideWindow)
{
    net.faults().addPartition(kServer, kClient, msecs(10), msecs(20));
    server.udpBind(5060);
    auto &csock = client.udpBind(9000);
    clientMachine.spawn("tx", 0, [&](Process &p) -> Task {
        struct Body
        {
            static Task
            run(Process &p, UdpSocket *sock, Addr dst)
            {
                co_await sock->sendTo(p, dst, "before");
                co_await p.sleepFor(msecs(15));
                co_await sock->sendTo(p, dst, "inside");
                co_await p.sleepFor(msecs(10));
                co_await sock->sendTo(p, dst, "after");
            }
        };
        return Body::run(p, &csock, server.addr(5060));
    });
    sim.run();
    EXPECT_EQ(net.stats().udpDelivered, 2u);
    EXPECT_EQ(net.stats().udpLost, 1u);
    EXPECT_EQ(
        net.faults().stats().find(kClient, kServer)->partitionDrops,
        1u);
}

// --- TCP faults ------------------------------------------------------------

TEST_F(NetFixture, TcpConnectRefusalByProbability)
{
    Impairment imp;
    imp.connectRefuseProb = 1.0;
    net.faults().setLink(kClient, kServer, imp);

    server.tcpListen(5060);
    bool refused = false;
    clientMachine.spawn("c", 0, [&](Process &p) -> Task {
        struct Body
        {
            static Task
            run(Process &p, Host *client, Addr dst, bool *refused)
            {
                TcpConn conn;
                try {
                    co_await client->tcpConnect(p, dst, conn);
                } catch (const NetError &e) {
                    *refused = e.code() == NetErrc::ConnectionRefused;
                }
            }
        };
        return Body::run(p, &client, server.addr(5060), &refused);
    });
    sim.run();
    EXPECT_TRUE(refused);
    EXPECT_EQ(net.stats().tcpFaultRefused, 1u);
    EXPECT_EQ(net.stats().tcpRefused, 1u);
    EXPECT_EQ(
        net.faults().stats().find(kClient, kServer)->connectsRefused,
        1u);
}

TEST_F(NetFixture, TcpConnectRefusedDuringPartition)
{
    net.faults().addPartition(kServer, kClient, 0);
    server.tcpListen(5060);
    bool refused = false;
    clientMachine.spawn("c", 0, [&](Process &p) -> Task {
        struct Body
        {
            static Task
            run(Process &p, Host *client, Addr dst, bool *refused)
            {
                TcpConn conn;
                try {
                    co_await client->tcpConnect(p, dst, conn);
                } catch (const NetError &) {
                    *refused = true;
                }
            }
        };
        return Body::run(p, &client, server.addr(5060), &refused);
    });
    sim.run();
    EXPECT_TRUE(refused);
}

TEST_F(NetFixture, TcpMidStreamRstKillsBothEnds)
{
    auto &listener = server.tcpListen(5060);
    std::string first, second;
    bool client_dead = false;
    serverMachine.spawn("srv", 0, [&](Process &p) -> Task {
        struct Body
        {
            static Task
            run(Process &p, TcpListener *l, std::string *first,
                std::string *second)
            {
                TcpConn conn;
                co_await l->accept(p, conn);
                co_await conn.recv(p, *first);
                // Second read observes the injected RST: empty.
                co_await conn.recv(p, *second);
                co_await conn.close(p);
            }
        };
        return Body::run(p, &listener, &first, &second);
    });
    clientMachine.spawn("cli", 0, [&](Process &p) -> Task {
        struct Body
        {
            static Task
            run(Process &p, Host *client, Network *net, Addr dst,
                bool *client_dead)
            {
                TcpConn conn;
                co_await client->tcpConnect(p, dst, conn);
                co_await conn.send(p, "hello");
                // Arm the RST only now, so the greeting goes through.
                Impairment imp;
                imp.rstProb = 1.0;
                net->faults().setLink(kClient, kServer, imp);
                co_await conn.send(p, "doomed");
                std::string out;
                co_await conn.recv(p, out);
                *client_dead = out.empty();
                co_await conn.close(p);
            }
        };
        return Body::run(p, &client, &net, server.addr(5060),
                         &client_dead);
    });
    sim.run();
    EXPECT_EQ(first, "hello");
    EXPECT_EQ(second, ""); // reset, not data
    EXPECT_TRUE(client_dead);
    EXPECT_EQ(net.stats().tcpRstInjected, 1u);
    EXPECT_EQ(net.faults().stats().find(kClient, kServer)->rstsInjected,
              1u);
}

TEST_F(NetFixture, TcpLossRecoversLateButInOrder)
{
    Impairment imp;
    imp.lossProb = 1.0;
    imp.recoveryDelay = msecs(100);
    net.faults().setLink(kClient, kServer, imp);

    auto &listener = server.tcpListen(5060);
    std::string got;
    SimTime arrived = 0;
    serverMachine.spawn("srv", 0, [&](Process &p) -> Task {
        struct Body
        {
            static Task
            run(Process &p, TcpListener *l, std::string *got,
                SimTime *at)
            {
                TcpConn conn;
                co_await l->accept(p, conn);
                while (got->size() < 10) {
                    std::string chunk;
                    co_await conn.recv(p, chunk);
                    if (chunk.empty())
                        break;
                    *got += chunk;
                }
                *at = p.sim().now();
                co_await conn.close(p);
            }
        };
        return Body::run(p, &listener, &got, &arrived);
    });
    clientMachine.spawn("cli", 0, [&](Process &p) -> Task {
        struct Body
        {
            static Task
            run(Process &p, Host *client, Addr dst)
            {
                TcpConn conn;
                co_await client->tcpConnect(p, dst, conn);
                co_await conn.send(p, "01234");
                co_await conn.send(p, "56789");
                co_await conn.close(p);
            }
        };
        return Body::run(p, &client, server.addr(5060));
    });
    sim.run();
    EXPECT_EQ(got, "0123456789"); // delivered, ordered
    EXPECT_GE(arrived, msecs(100));
    EXPECT_GE(net.stats().tcpRecoveries, 2u);
    EXPECT_GE(net.faults().stats().find(kClient, kServer)->recoveries,
              2u);
}

TEST_F(NetFixture, TcpStalledPeerBlackholesSegments)
{
    Impairment imp;
    imp.stalled = true;
    net.faults().setLink(kClient, kServer, imp);

    auto &listener = server.tcpListen(5060);
    TcpConn server_conn;
    serverMachine.spawn("srv", 0, [&](Process &p) {
        return listener.accept(p, server_conn);
    });
    clientMachine.spawn("cli", 0, [&](Process &p) -> Task {
        struct Body
        {
            static Task
            run(Process &p, Host *client, Addr dst)
            {
                TcpConn conn;
                co_await client->tcpConnect(p, dst, conn);
                // The kernel accepts these sends without error...
                co_await conn.send(p, "into the void");
                co_await conn.send(p, "more bytes");
                co_await conn.close(p);
            }
        };
        return Body::run(p, &client, server.addr(5060));
    });
    sim.runFor(secs(1));
    // ...but nothing ever reaches the peer, not even the FIN.
    EXPECT_TRUE(server_conn.valid());
    EXPECT_EQ(server_conn.endpoint()->rxAvailable(), 0u);
    EXPECT_FALSE(server_conn.endpoint()->peerClosed());
    EXPECT_EQ(net.stats().tcpBlackholed, 3u); // two sends + the FIN
    EXPECT_EQ(net.faults().stats().find(kClient, kServer)->stalledDrops,
              3u);
}

// --- SCTP ------------------------------------------------------------------

TEST_F(NetFixture, SctpLossRecoveryPreservesOrder)
{
    Impairment imp;
    imp.lossProb = 0.5;
    imp.recoveryDelay = msecs(20);
    net.faults().setLink(kClient, kServer, imp);

    auto &ssock = server.sctpBind(5060);
    auto &csock = client.sctpBind(9000);
    std::vector<Datagram> got;
    serverMachine.spawn("rx", 0, [&](Process &p) -> Task {
        struct Body
        {
            static Task
            run(Process &p, SctpSocket *sock,
                std::vector<Datagram> *out)
            {
                for (int i = 0; i < 30; ++i) {
                    Datagram d;
                    co_await sock->recvFrom(p, d);
                    out->push_back(std::move(d));
                }
            }
        };
        return Body::run(p, &ssock, &got);
    });
    clientMachine.spawn("tx", 0, [&](Process &p) -> Task {
        struct Body
        {
            static Task
            run(Process &p, SctpSocket *sock, Addr dst)
            {
                for (int i = 0; i < 30; ++i)
                    co_await sock->sendTo(p, dst,
                                          "m" + std::to_string(i));
            }
        };
        return Body::run(p, &csock, server.addr(5060));
    });
    sim.run();
    ASSERT_EQ(got.size(), 30u);
    for (int i = 0; i < 30; ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(i)].payload,
                  "m" + std::to_string(i));
    }
    EXPECT_GT(net.faults().stats().find(kClient, kServer)->recoveries,
              0u);
}

// --- Determinism across full scenario runs ---------------------------------

workload::Scenario
impairedScenario(std::uint64_t seed)
{
    workload::Scenario sc;
    sc.proxy.transport = core::Transport::Udp;
    sc.proxy.workers = 4;
    sc.clients = 4;
    sc.callsPerClient = 5;
    sc.clientMachines = 2;
    sc.seed = seed;
    sc.maxDuration = secs(120);
    sc.phoneResponseTimeout = secs(10);
    workload::LinkFault lf;
    lf.imp.lossProb = 0.1;
    lf.imp.dupProb = 0.05;
    lf.imp.jitter = msecs(2);
    sc.linkFaults.push_back(lf);
    return sc;
}

TEST(FaultDeterminismTest, SameSeedGivesByteIdenticalDigests)
{
    workload::RunResult a = runScenario(impairedScenario(7));
    workload::RunResult b = runScenario(impairedScenario(7));
    EXPECT_EQ(a.digest(), b.digest());
    // The impairments actually fired.
    EXPECT_GT(a.faults.total().lost + a.faults.total().duplicated, 0u);
}

TEST(FaultDeterminismTest, DifferentSeedsDiverge)
{
    workload::RunResult a = runScenario(impairedScenario(7));
    workload::RunResult b = runScenario(impairedScenario(8));
    EXPECT_NE(a.digest(), b.digest());
}

// --- A callee whose only flow the proxy closes ------------------------------

/**
 * Resets and a 200 ms proxy idle timeout take callees' connections
 * away between calls. A callee left with no flow must reconnect and
 * re-register instead of spinning on a wait that returns at once
 * (which used to stall the run at t=0.41 s under the supervisor).
 */
workload::Scenario
lostFlowScenario(core::ArchKind arch)
{
    workload::Scenario sc =
        workload::paperScenario(core::Transport::Tcp, 10, 5);
    sc.callsPerClient = 5;
    sc.seed = 22;
    workload::LinkFault lf;
    lf.imp.rstProb = 0.002;
    sc.linkFaults.push_back(lf);
    sc.proxy.idleTimeout = msecs(200);
    sc.proxy.arch = arch;
    return sc;
}

void
expectFinishes(const workload::RunResult &r)
{
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.callsCompleted + r.callsFailed, 50u);
    EXPECT_GT(r.callsCompleted, 0u);
    EXPECT_GT(r.net.tcpRstInjected, 0u);
}

TEST(LostFlowTest, SupervisorCalleeReconnectsAfterIdleClose)
{
    expectFinishes(runScenario(
        lostFlowScenario(core::ArchKind::SupervisorWorker)));
}

TEST(LostFlowTest, EventCalleeReconnectsAfterIdleClose)
{
    expectFinishes(
        runScenario(lostFlowScenario(core::ArchKind::EventDriven)));
}

} // namespace
