/**
 * @file
 * Retransmission and timeout behaviour under injected faults: RFC 3261
 * retransmission recovering UDP loss, stateful duplicate absorption,
 * reorder tolerance, Timer B expiry generating 408s and reclaiming
 * transaction-table entries, TCP mid-stream resets evicting
 * connection-table entries, and partition-heal recovery.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.hh"
#include "core/proxy.hh"
#include "net/network.hh"
#include "sim/simulation.hh"
#include "sip/builders.hh"
#include "sip/parser.hh"
#include "sip/timers.hh"
#include "workload/scenario.hh"

namespace {

using namespace siprox;
using namespace siprox::core;

// --- RetransList unit tests -----------------------------------------------

RetransList::Entry
entryFor(const std::string &branch, sim::SimTime now, bool invite)
{
    RetransList::Entry e;
    e.key = sip::TransactionKey{branch,
                                invite ? sip::Method::Invite
                                       : sip::Method::Bye};
    e.wire = "WIRE-" + branch;
    e.dst = net::Addr{2, 16000};
    e.interval = sip::timers::kT1;
    e.nextAt = now + sip::timers::kT1;
    e.deadline = now + sip::timers::kTimerB;
    e.invite = invite;
    return e;
}

TEST(RetransListTimeoutTest, CollectDueReturnsExpiredEntries)
{
    RetransList list;
    list.arm(entryFor("b1", 0, true));
    list.arm(entryFor("b2", 0, false));
    std::vector<RetransList::Due> due;
    std::vector<RetransList::TimedOut> timed_out;
    list.collectDue(sip::timers::kTimerB + 1, due, timed_out);
    EXPECT_TRUE(due.empty());
    ASSERT_EQ(timed_out.size(), 2u);
    EXPECT_EQ(timed_out[0].key.branch, "b1");
    EXPECT_EQ(timed_out[0].wire, "WIRE-b1");
    EXPECT_TRUE(timed_out[0].invite);
    EXPECT_FALSE(timed_out[1].invite);
    EXPECT_EQ(list.size(), 0u);
}

TEST(RetransListTimeoutTest, LegacyOverloadStillCountsTimeouts)
{
    RetransList list;
    list.arm(entryFor("b1", 0, true));
    std::vector<RetransList::Due> due;
    std::size_t timeouts = 0;
    list.collectDue(sip::timers::kTimerB + 1, due, timeouts);
    EXPECT_EQ(timeouts, 1u);
    EXPECT_EQ(list.size(), 0u);
}

TEST(RetransListTimeoutTest, CancelledEntriesDoNotTimeOut)
{
    RetransList list;
    list.arm(entryFor("b1", 0, true));
    list.cancel(sip::TransactionKey{"b1", sip::Method::Invite});
    std::vector<RetransList::Due> due;
    std::vector<RetransList::TimedOut> timed_out;
    list.collectDue(sip::timers::kTimerB + 1, due, timed_out);
    EXPECT_TRUE(timed_out.empty());
    EXPECT_EQ(list.size(), 0u);
}

// --- Timer B at the engine level ------------------------------------------

class TimerBTest : public ::testing::Test
{
  protected:
    TimerBTest() : machine(sim.addMachine("server", 4)), proxyAddr{1, 5060}
    {
        cfg.transport = Transport::Udp;
        cfg.stateful = true;
    }

    std::vector<SendAction>
    handle(const std::string &raw, net::Addr src)
    {
        Engine engine(shared, cfg, proxyAddr, 0);
        std::vector<SendAction> actions;
        machine.spawn("driver", 0, [&](sim::Process &p) -> sim::Task {
            struct Body
            {
                static sim::Task
                run(sim::Process &p, Engine *engine, std::string raw,
                    net::Addr src, std::vector<SendAction> *actions)
                {
                    co_await engine->handleMessage(
                        p, std::move(raw), MsgSource{src, 0}, *actions);
                }
            };
            return Body::run(p, &engine, raw, src, &actions);
        });
        sim.run();
        return actions;
    }

    std::vector<SendAction>
    timeout(const RetransList::TimedOut &to)
    {
        Engine engine(shared, cfg, proxyAddr, 0);
        std::vector<SendAction> actions;
        machine.spawn("timer", 0, [&](sim::Process &p) -> sim::Task {
            struct Body
            {
                static sim::Task
                run(sim::Process &p, Engine *engine,
                    const RetransList::TimedOut *to,
                    std::vector<SendAction> *actions)
                {
                    co_await engine->handleTimeout(p, *to, actions);
                }
            };
            return Body::run(p, &engine, &to, &actions);
        });
        sim.run();
        return actions;
    }

    void
    registerBob()
    {
        sip::RequestSpec spec;
        spec.method = sip::Method::Register;
        spec.requestUri = sip::uriForAddr("", proxyAddr);
        spec.from = sip::uriForAddr("bob", bobAddr);
        spec.to = sip::uriForAddr("bob", proxyAddr);
        spec.fromTag = "rt";
        spec.callId = "bob-reg";
        spec.cseq = 1;
        spec.viaSentBy = sip::uriForAddr("", bobAddr);
        spec.branch = "z9hG4bK-reg-bob";
        spec.contact = sip::uriForAddr("bob", bobAddr);
        auto actions = handle(sip::buildRequest(spec).serialize(),
                              bobAddr);
        ASSERT_EQ(actions.size(), 1u);
    }

    sip::SipMessage
    inviteMsg(const std::string &branch = "z9hG4bK-inv-1")
    {
        sip::RequestSpec spec;
        spec.method = sip::Method::Invite;
        spec.requestUri = sip::uriForAddr("bob", proxyAddr);
        spec.from = sip::uriForAddr("alice", aliceAddr);
        spec.to = sip::uriForAddr("bob", proxyAddr);
        spec.fromTag = "ft";
        spec.callId = "call-1";
        spec.cseq = 1;
        spec.viaSentBy = sip::uriForAddr("", aliceAddr);
        spec.branch = branch;
        spec.contact = sip::uriForAddr("alice", aliceAddr);
        return sip::buildRequest(spec);
    }

    /** INVITE through the engine; returns the armed timeout entry. */
    RetransList::TimedOut
    armInvite()
    {
        registerBob();
        auto actions = handle(inviteMsg().serialize(), aliceAddr);
        // TRYING to alice + forwarded INVITE to bob.
        EXPECT_EQ(actions.size(), 2u);
        EXPECT_EQ(shared.retrans.size(), 1u);
        std::vector<RetransList::Due> due;
        std::vector<RetransList::TimedOut> timed_out;
        shared.retrans.collectDue(sim.now() + sip::timers::kTimerB + 1,
                                  due, timed_out);
        EXPECT_EQ(timed_out.size(), 1u);
        return timed_out.empty() ? RetransList::TimedOut{}
                                 : timed_out[0];
    }

    sim::Simulation sim;
    sim::Machine &machine;
    SharedState shared;
    ProxyConfig cfg;
    net::Addr proxyAddr;
    net::Addr aliceAddr{2, 6000};
    net::Addr bobAddr{2, 16000};
};

TEST_F(TimerBTest, TimeoutGenerates408ToCaller)
{
    auto to = armInvite();
    ASSERT_TRUE(to.invite);
    auto actions = timeout(to);
    ASSERT_EQ(actions.size(), 1u);
    // Back to the INVITE's source: alice's address, no connection.
    EXPECT_EQ(actions[0].dstAddr, aliceAddr);
    EXPECT_EQ(actions[0].dstConnId, 0u);
    auto rsp = sip::parseMessage(actions[0].wire);
    ASSERT_TRUE(rsp.ok);
    EXPECT_EQ(rsp.message.statusCode(), sip::status::kRequestTimeout);
    // The proxy's own Via was popped: the top Via is alice's.
    auto via = rsp.message.topVia();
    ASSERT_TRUE(via.has_value());
    EXPECT_NE(via->host, "h1");
    EXPECT_EQ(shared.counters.timerB408s, 1u);
}

TEST_F(TimerBTest, TimeoutCompletesAndReclaimsRecord)
{
    auto to = armInvite();
    EXPECT_GT(shared.txns.size(), 0u);
    timeout(to);
    auto rec = shared.txns.find(to.key);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->state, TxnRecord::State::Completed);
    EXPECT_NE(rec->lastResponse.find("408"), std::string::npos);
    // The record is on the expiry queue: a timer sweep past the linger
    // interval reclaims it.
    std::size_t removed =
        shared.txns.cleanupExpired(sim.now() + cfg.txnLinger + 1);
    EXPECT_EQ(removed, 1u);
    EXPECT_EQ(shared.txns.size(), 0u);
}

TEST_F(TimerBTest, TimeoutAfterFinalResponseIsNoOp)
{
    registerBob();
    auto actions = handle(inviteMsg().serialize(), aliceAddr);
    ASSERT_EQ(actions.size(), 2u);
    // Bob answers before Timer B fires.
    auto fwd = sip::parseMessage(actions[1].wire);
    ASSERT_TRUE(fwd.ok);
    auto ok200 = sip::buildResponse(fwd.message, sip::status::kOk, "bt");
    handle(ok200.serialize(), bobAddr);
    // A straggling timeout for the same branch must not 408 a
    // transaction that already completed.
    RetransList::TimedOut to;
    to.key = *sip::transactionKey(fwd.message);
    to.wire = actions[1].wire;
    to.invite = true;
    auto late = timeout(to);
    EXPECT_TRUE(late.empty());
    EXPECT_EQ(shared.counters.timerB408s, 0u);
}

// --- Scenario-level retransmission behaviour -------------------------------

workload::Scenario
lossyScenario(double loss)
{
    workload::Scenario sc;
    sc.proxy.transport = Transport::Udp;
    sc.proxy.workers = 4;
    sc.clients = 4;
    sc.callsPerClient = 5;
    sc.clientMachines = 2;
    sc.maxDuration = sim::secs(120);
    sc.phoneResponseTimeout = sim::secs(10);
    workload::LinkFault lf;
    lf.imp.lossProb = loss;
    sc.linkFaults.push_back(lf);
    return sc;
}

TEST(RetransScenarioTest, TenPercentLossCallsStillComplete)
{
    workload::RunResult r = runScenario(lossyScenario(0.10));
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.callsFailed, 0u);
    EXPECT_EQ(r.callsCompleted, 20u);
    EXPECT_GT(r.phoneRetransmissions, 0u);
    EXPECT_GT(r.faults.total().lost, 0u);
    // Some recovery was driven by the endpoints or the proxy timer.
    EXPECT_GT(r.counters.retransSent + r.counters.retransAbsorbed, 0u);
}

TEST(RetransScenarioTest, HeavyLossRecoversViaRetransmission)
{
    workload::RunResult r = runScenario(lossyScenario(0.35));
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(r.callsCompleted, 0u);
    // The proxy both retransmitted downstream and absorbed duplicates
    // from upstream retransmitters.
    EXPECT_GT(r.counters.retransSent, 0u);
    EXPECT_GT(r.counters.retransAbsorbed, 0u);
    EXPECT_GT(r.phoneRetransmissions, 0u);
}

TEST(RetransScenarioTest, DuplicatesAreAbsorbedStatefully)
{
    workload::Scenario sc = lossyScenario(0.0);
    sc.linkFaults.clear();
    workload::LinkFault lf;
    lf.toProxy = true;
    lf.fromProxy = false;
    lf.imp.dupProb = 1.0;
    sc.linkFaults.push_back(lf);
    workload::RunResult r = runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.callsFailed, 0u);
    EXPECT_EQ(r.callsCompleted, 20u);
    EXPECT_GT(r.net.faultDuplicated, 0u);
    // Duplicate INVITEs/BYEs hit the transaction table and were
    // answered from state instead of being re-forwarded.
    EXPECT_GT(r.counters.retransAbsorbed, 0u);
}

TEST(RetransScenarioTest, ReorderingIsTolerated)
{
    workload::Scenario sc = lossyScenario(0.0);
    sc.linkFaults.clear();
    workload::LinkFault lf;
    lf.imp.reorderProb = 0.5;
    lf.imp.reorderWindow = sim::msecs(5);
    sc.linkFaults.push_back(lf);
    workload::RunResult r = runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_EQ(r.callsFailed, 0u);
    EXPECT_EQ(r.callsCompleted, 20u);
    EXPECT_GT(r.faults.total().reordered, 0u);
}

TEST(RetransScenarioTest, SustainedLossReclaimsTxnTableViaTimerB)
{
    workload::Scenario sc;
    sc.proxy.transport = Transport::Udp;
    sc.proxy.workers = 4;
    sc.clients = 2;
    sc.callsPerClient = 3;
    sc.clientMachines = 1;
    sc.answerDelay = sim::msecs(300);
    sc.phoneResponseTimeout = sim::secs(2);
    sc.maxDuration = sim::secs(120);
    // After t=500ms nothing the proxy sends reaches any client, so
    // late transactions can only terminate through Timer B.
    workload::LinkFault lf;
    lf.toProxy = false;
    lf.fromProxy = true;
    lf.imp.partitions.push_back(
        net::PartitionWindow{sim::msecs(500), sim::kTimeNever});
    sc.linkFaults.push_back(lf);
    // Long settle so Timer B (32s) fires and the linger expires.
    sc.settleTime = sim::secs(40);
    workload::RunResult r = runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(r.callsFailed, 0u);
    EXPECT_GT(r.counters.timerB408s, 0u);
    EXPECT_GT(r.counters.retransSent, 0u); // proxy kept retransmitting
    // The whole point: sustained loss must not leak proxy state.
    EXPECT_EQ(r.txnEntriesAtEnd, 0u);
    EXPECT_EQ(r.retransEntriesAtEnd, 0u);
    EXPECT_GT(r.faults.total().partitionDrops, 0u);
}

TEST(RetransScenarioTest, PartitionHealCallsCompleteLate)
{
    workload::Scenario sc;
    sc.proxy.transport = Transport::Udp;
    sc.proxy.workers = 4;
    sc.clients = 2;
    sc.callsPerClient = 1;
    sc.clientMachines = 1;
    sc.answerDelay = sim::msecs(600);
    sc.phoneResponseTimeout = sim::secs(10);
    sc.maxDuration = sim::secs(120);
    workload::Partition pt;
    pt.start = sim::msecs(400);
    pt.stop = sim::secs(2);
    sc.partitions.push_back(pt);
    workload::RunResult r = runScenario(sc);
    EXPECT_FALSE(r.timedOut);
    // Calls complete — late, after the partition heals.
    EXPECT_EQ(r.callsFailed, 0u);
    EXPECT_EQ(r.callsCompleted, 2u);
    EXPECT_GT(r.phoneRetransmissions, 0u);
    EXPECT_GT(r.faults.total().partitionDrops, 0u);
    EXPECT_GT(r.inviteP50, sim::secs(1)); // answered across the outage
}

// --- TCP reset eviction -----------------------------------------------------

TEST(TcpRstEvictionTest, MidStreamRstEvictsProxyConnEntry)
{
    sim::Simulation simulation(5);
    auto &server_machine = simulation.addMachine("server", 4);
    auto &client_machine = simulation.addMachine("client", 2);
    net::Network network(simulation);
    auto &server_host = network.attach(server_machine);
    auto &client_host = network.attach(client_machine);

    ProxyConfig cfg;
    cfg.transport = Transport::Tcp;
    cfg.workers = 2;
    Proxy proxy(server_machine, server_host, cfg);
    proxy.start();

    bool registered = false;
    bool saw_reset = false;
    client_machine.spawn("cli", 0, [&](sim::Process &p) -> sim::Task {
        struct Body
        {
            static sip::SipMessage
            registerMsg(net::Addr self, net::Addr proxy_addr, int cseq)
            {
                sip::RequestSpec spec;
                spec.method = sip::Method::Register;
                spec.requestUri = sip::uriForAddr("", proxy_addr);
                spec.from = sip::uriForAddr("carol", self);
                spec.to = sip::uriForAddr("carol", proxy_addr);
                spec.fromTag = "rt";
                spec.callId = "carol-reg";
                spec.cseq = static_cast<unsigned>(cseq);
                spec.viaTransport = "TCP";
                spec.viaSentBy = sip::uriForAddr("", self);
                spec.branch = "z9hG4bK-creg-" + std::to_string(cseq);
                spec.contact = sip::uriForAddr("carol", self);
                return sip::buildRequest(spec);
            }

            static sim::Task
            run(sim::Process &p, net::Host *client, net::Network *net,
                net::Addr proxy_addr, bool *registered, bool *saw_reset)
            {
                net::TcpConn conn;
                co_await client->tcpConnect(p, proxy_addr, conn);
                net::Addr self = conn.local();
                co_await conn.send(
                    p, registerMsg(self, proxy_addr, 1).serialize());
                sip::StreamFramer framer;
                while (!*registered) {
                    std::string bytes;
                    co_await conn.recv(p, bytes);
                    if (bytes.empty())
                        co_return; // premature EOF: test will fail
                    framer.feed(bytes);
                    while (auto raw = framer.next()) {
                        auto rsp = sip::parseMessage(*raw);
                        if (rsp.ok && rsp.message.isSuccess())
                            *registered = true;
                    }
                }
                // From now on every segment we send is reset.
                net::Impairment imp;
                imp.rstProb = 1.0;
                net->faults().setLink(client->id(),
                                      proxy_addr.host, imp);
                co_await conn.send(
                    p, registerMsg(self, proxy_addr, 2).serialize());
                std::string bytes;
                co_await conn.recv(p, bytes);
                *saw_reset = bytes.empty();
                co_await conn.close(p);
            }
        };
        return Body::run(p, &client_host, &network, proxy.addr(),
                         &registered, &saw_reset);
    });

    simulation.runUntil(sim::secs(5));
    proxy.requestStop();

    EXPECT_TRUE(registered);
    EXPECT_TRUE(saw_reset);
    EXPECT_EQ(network.stats().tcpRstInjected, 1u);
    const auto &c = proxy.shared().counters;
    EXPECT_GE(c.connsAccepted, 1u);
    // The reset connection was detected dead and its conn-table entry
    // evicted well before any idle timeout.
    EXPECT_GE(c.connsDestroyed, 1u);
    EXPECT_EQ(proxy.shared().conns.size(), 0u);
}

} // namespace
