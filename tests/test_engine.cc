/**
 * @file
 * Unit tests for the proxy Engine: the transport-independent SIP
 * handling — registration, TRYING generation, routing, Via handling,
 * retransmission absorption, and error paths — driven directly with
 * hand-built messages on a one-process simulation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hh"
#include "sim/simulation.hh"
#include "sip/builders.hh"
#include "sip/parser.hh"

namespace {

using namespace siprox;
using namespace siprox::core;

class EngineTest : public ::testing::Test
{
  protected:
    EngineTest()
        : machine(sim.addMachine("server", 4)),
          proxyAddr{1, 5060}
    {
        cfg.transport = Transport::Udp;
        cfg.stateful = true;
    }

    /** Run engine.handleMessage for @p raw inside a process. */
    std::vector<SendAction>
    handle(const std::string &raw, net::Addr src)
    {
        Engine engine(shared, cfg, proxyAddr, 0);
        std::vector<SendAction> actions;
        bool done = false;
        machine.spawn("driver", 0, [&](sim::Process &p) -> sim::Task {
            struct Body
            {
                static sim::Task
                run(sim::Process &p, Engine *engine, std::string raw,
                    net::Addr src, std::vector<SendAction> *actions,
                    bool *done)
                {
                    co_await engine->handleMessage(
                        p, std::move(raw), MsgSource{src, 0},
                        *actions);
                    *done = true;
                }
            };
            return Body::run(p, &engine, raw, src, &actions, &done);
        });
        sim.run();
        EXPECT_TRUE(done);
        return actions;
    }

    /** Register "bob" at client address {2, 16000}. */
    void
    registerBob()
    {
        auto actions = handle(registerMsg("bob", bobAddr).serialize(),
                              bobAddr);
        ASSERT_EQ(actions.size(), 1u);
    }

    sip::SipMessage
    registerMsg(const std::string &user, net::Addr addr)
    {
        sip::RequestSpec spec;
        spec.method = sip::Method::Register;
        spec.requestUri = sip::uriForAddr("", proxyAddr);
        spec.from = sip::uriForAddr(user, addr);
        spec.to = sip::uriForAddr(user, proxyAddr);
        spec.fromTag = "rt";
        spec.callId = user + "-reg";
        spec.cseq = 1;
        spec.viaSentBy = sip::uriForAddr("", addr);
        spec.branch = "z9hG4bK-reg-" + user;
        spec.contact = sip::uriForAddr(user, addr);
        return sip::buildRequest(spec);
    }

    sip::RequestSpec
    inviteSpec(const std::string &branch = "z9hG4bK-inv-1")
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
        return spec;
    }

    sip::SipMessage
    inviteMsg(const std::string &branch = "z9hG4bK-inv-1")
    {
        return sip::buildRequest(inviteSpec(branch));
    }

    sim::Simulation sim;
    sim::Machine &machine;
    SharedState shared;
    ProxyConfig cfg;
    net::Addr proxyAddr;
    net::Addr aliceAddr{2, 6000};
    net::Addr bobAddr{2, 16000};
};

TEST_F(EngineTest, RegisterCreatesBindingAndReplies200)
{
    auto actions = handle(registerMsg("bob", bobAddr).serialize(),
                          bobAddr);
    ASSERT_EQ(actions.size(), 1u);
    auto rsp = sip::parseMessage(actions[0].wire);
    ASSERT_TRUE(rsp.ok);
    EXPECT_EQ(rsp.message.statusCode(), 200);
    EXPECT_EQ(actions[0].dstAddr, bobAddr);
    auto binding = shared.registrar.lookup("bob");
    ASSERT_TRUE(binding);
    EXPECT_EQ(binding->contact.user, "bob");
    EXPECT_EQ(shared.counters.registrations, 1u);
}

TEST_F(EngineTest, InviteGetsTryingAndForward)
{
    registerBob();
    auto actions = handle(inviteMsg().serialize(), aliceAddr);
    ASSERT_EQ(actions.size(), 2u);
    auto trying = sip::parseMessage(actions[0].wire);
    ASSERT_TRUE(trying.ok);
    EXPECT_EQ(trying.message.statusCode(), 100);
    EXPECT_EQ(actions[0].dstAddr, aliceAddr);

    auto fwd = sip::parseMessage(actions[1].wire);
    ASSERT_TRUE(fwd.ok);
    EXPECT_TRUE(fwd.message.isRequest());
    EXPECT_EQ(actions[1].dstAddr, bobAddr);
    // Proxy pushed its own Via on top; the original is second.
    auto vias = fwd.message.headerAll("Via");
    ASSERT_EQ(vias.size(), 2u);
    EXPECT_NE(vias[0].find("h1:5060"), std::string_view::npos);
    // Request-URI retargeted to the registered contact.
    EXPECT_EQ(fwd.message.requestUri().host, "h2");
    EXPECT_EQ(*fwd.message.maxForwards(), 69);
    // Stateful: transaction record created, retransmission armed.
    EXPECT_EQ(shared.txns.size(), 2u);
    EXPECT_EQ(shared.retrans.size(), 1u);
}

TEST_F(EngineTest, StatelessInviteSkipsTryingAndState)
{
    cfg.stateful = false;
    registerBob();
    auto actions = handle(inviteMsg().serialize(), aliceAddr);
    ASSERT_EQ(actions.size(), 1u); // forward only
    EXPECT_EQ(shared.txns.size(), 0u);
    EXPECT_EQ(shared.retrans.size(), 0u);
}

TEST_F(EngineTest, RetransmittedInviteAbsorbed)
{
    registerBob();
    handle(inviteMsg().serialize(), aliceAddr);
    auto again = handle(inviteMsg().serialize(), aliceAddr);
    // Absorbed: no new forward; the stored TRYING is replayed.
    ASSERT_EQ(again.size(), 1u);
    auto rsp = sip::parseMessage(again[0].wire);
    ASSERT_TRUE(rsp.ok);
    EXPECT_EQ(rsp.message.statusCode(), 100);
    EXPECT_EQ(shared.counters.retransAbsorbed, 1u);
    EXPECT_EQ(shared.retrans.size(), 1u); // still just one timer
}

TEST_F(EngineTest, UnknownUserGets404)
{
    auto actions = handle(inviteMsg().serialize(), aliceAddr);
    // TRYING plus 404 (no binding for bob).
    ASSERT_EQ(actions.size(), 2u);
    auto rsp = sip::parseMessage(actions[1].wire);
    ASSERT_TRUE(rsp.ok);
    EXPECT_EQ(rsp.message.statusCode(), 404);
    EXPECT_EQ(shared.counters.routeFailures, 1u);
}

TEST_F(EngineTest, DirectAddressableUriBypassesRegistrar)
{
    // In-dialog style request aimed straight at a contact address.
    auto msg = inviteMsg();
    msg.setRequestUri(sip::uriForAddr("bob", bobAddr));
    auto actions = handle(msg.serialize(), aliceAddr);
    ASSERT_EQ(actions.size(), 2u);
    EXPECT_EQ(actions[1].dstAddr, bobAddr);
}

TEST_F(EngineTest, ExhaustedMaxForwardsIsDropped)
{
    registerBob();
    auto msg = inviteMsg();
    msg.setMaxForwards(0);
    auto actions = handle(msg.serialize(), aliceAddr);
    // TRYING still sent, but no forward.
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(shared.counters.routeFailures, 1u);
    EXPECT_EQ(shared.counters.forwards, 0u);
}

TEST_F(EngineTest, ResponseRoutedUpstreamViaRecord)
{
    registerBob();
    auto fwd_actions = handle(inviteMsg().serialize(), aliceAddr);
    auto fwd = sip::parseMessage(fwd_actions[1].wire).message;

    // Bob answers 200; the top Via is the proxy's.
    sip::SipMessage ok = sip::buildResponse(fwd, 200, "bt");
    auto actions = handle(ok.serialize(), bobAddr);
    ASSERT_EQ(actions.size(), 1u);
    // Back to the INVITE's source: alice's address, no connection.
    EXPECT_EQ(actions[0].dstAddr, aliceAddr);
    EXPECT_EQ(actions[0].dstConnId, 0u);
    auto out = sip::parseMessage(actions[0].wire);
    ASSERT_TRUE(out.ok);
    // Proxy's Via was popped: one Via remains (alice's).
    EXPECT_EQ(out.message.headerAll("Via").size(), 1u);
    // Final response cancels the proxy's retransmission timer.
    std::vector<RetransList::Due> due;
    std::size_t timeouts = 0;
    shared.retrans.collectDue(sim::secs(100), due, timeouts);
    EXPECT_TRUE(due.empty());
}

TEST_F(EngineTest, ResponseWithForeignViaDropped)
{
    sip::SipMessage rsp = sip::SipMessage::response(200);
    rsp.addHeader("Via", "SIP/2.0/UDP h9:5060;branch=z9hG4bK-x");
    rsp.addHeader("Call-ID", "c");
    rsp.addHeader("CSeq", "1 INVITE");
    auto actions = handle(rsp.serialize(), bobAddr);
    EXPECT_TRUE(actions.empty());
}

TEST_F(EngineTest, GarbageCountsParseErrorAndIsIgnored)
{
    auto actions = handle("NOT SIP AT ALL\r\n\r\n", aliceAddr);
    EXPECT_TRUE(actions.empty());
    EXPECT_EQ(shared.counters.parseErrors, 1u);
}

TEST_F(EngineTest, AckForUnknownTransactionRoutedByUri)
{
    registerBob();
    sip::SipMessage invite = inviteMsg();
    sip::SipMessage ok = sip::buildResponse(invite, 200, "bt");
    sip::SipMessage ack =
        sip::buildAck(inviteSpec(), ok, "z9hG4bK-ack-1");
    ack.setRequestUri(sip::uriForAddr("bob", bobAddr));
    auto actions = handle(ack.serialize(), aliceAddr);
    // 2xx ACK: forwarded end-to-end, no local reply.
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(actions[0].dstAddr, bobAddr);
}

TEST_F(EngineTest, ByeForwardArmsNonInviteTimer)
{
    registerBob();
    auto bye = inviteMsg("z9hG4bK-bye-1");
    // Rebuild as a BYE.
    sip::RequestSpec spec;
    spec.method = sip::Method::Bye;
    spec.requestUri = sip::uriForAddr("bob", bobAddr);
    spec.from = sip::uriForAddr("alice", aliceAddr);
    spec.to = sip::uriForAddr("bob", proxyAddr);
    spec.fromTag = "ft";
    spec.callId = "call-1";
    spec.cseq = 2;
    spec.viaSentBy = sip::uriForAddr("", aliceAddr);
    spec.branch = "z9hG4bK-bye-1";
    auto actions = handle(sip::buildRequest(spec).serialize(),
                          aliceAddr);
    // No TRYING for non-INVITE; forward only.
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(shared.retrans.size(), 1u);
}

TEST_F(EngineTest, TcpTransportSkipsRetransmissionTimers)
{
    cfg.transport = Transport::Tcp;
    registerBob();
    auto actions = handle(inviteMsg().serialize(), aliceAddr);
    ASSERT_EQ(actions.size(), 2u);
    // Reliable transport: the kernel retransmits, not the proxy.
    EXPECT_EQ(shared.retrans.size(), 0u);
    EXPECT_EQ(shared.txns.size(), 2u); // still stateful
}

TEST_F(EngineTest, AuthChallengesUncredentialedInvite)
{
    cfg.authenticate = true;
    auto actions = handle(inviteMsg().serialize(), aliceAddr);
    ASSERT_EQ(actions.size(), 1u);
    auto rsp = sip::parseMessage(actions[0].wire);
    ASSERT_TRUE(rsp.ok);
    EXPECT_EQ(rsp.message.statusCode(), 401);
    auto www = rsp.message.header("WWW-Authenticate");
    ASSERT_TRUE(www);
    EXPECT_NE(www->find("nonce="), std::string_view::npos);
    EXPECT_EQ(shared.counters.authChallenges, 1u);
    EXPECT_EQ(shared.txns.size(), 0u); // no state for rejected requests
}

TEST_F(EngineTest, AuthAcceptsCredentialedInvite)
{
    cfg.authenticate = true;
    // Seed bob without auth interference.
    cfg.authenticate = false;
    registerBob();
    cfg.authenticate = true;
    auto msg = inviteMsg();
    msg.addHeader("Authorization",
                  "Digest username=\"alice\", nonce=\"n1\", "
                  "response=\"0badcafe\"");
    auto actions = handle(msg.serialize(), aliceAddr);
    ASSERT_EQ(actions.size(), 2u); // TRYING + forward
    EXPECT_EQ(shared.counters.authAccepted, 1u);
    EXPECT_EQ(shared.counters.authChallenges, 0u);
}

TEST_F(EngineTest, AuthNeverChallengesAck)
{
    cfg.authenticate = true;
    registerBob(); // challenged REGISTER is fine for this test
    sip::SipMessage invite = inviteMsg();
    sip::SipMessage ok = sip::buildResponse(invite, 200, "bt");
    sip::SipMessage ack = sip::buildAck(inviteSpec(), ok, "z9hG4bK-a1");
    ack.setRequestUri(sip::uriForAddr("bob", bobAddr));
    auto actions = handle(ack.serialize(), aliceAddr);
    // Forwarded (or dropped on routing), but never 401'd.
    for (const auto &action : actions) {
        auto rsp = sip::parseMessage(action.wire);
        if (rsp.ok && rsp.message.isResponse())
            EXPECT_NE(rsp.message.statusCode(), 401);
    }
}

TEST_F(EngineTest, RedirectAnswers302WithContact)
{
    cfg.redirect = true;
    registerBob();
    auto actions = handle(inviteMsg().serialize(), aliceAddr);
    // TRYING then 302; no forward.
    ASSERT_EQ(actions.size(), 2u);
    auto rsp = sip::parseMessage(actions[1].wire);
    ASSERT_TRUE(rsp.ok);
    EXPECT_EQ(rsp.message.statusCode(), 302);
    auto contact = rsp.message.contactUri();
    ASSERT_TRUE(contact);
    EXPECT_EQ(*sip::addrFromUri(*contact), bobAddr);
    EXPECT_EQ(shared.counters.redirects, 1u);
    EXPECT_EQ(shared.counters.forwards, 0u);
}

TEST_F(EngineTest, RedirectLeavesByeProxying)
{
    cfg.redirect = true;
    registerBob();
    sip::RequestSpec spec;
    spec.method = sip::Method::Bye;
    spec.requestUri = sip::uriForAddr("bob", bobAddr);
    spec.from = sip::uriForAddr("alice", aliceAddr);
    spec.to = sip::uriForAddr("bob", proxyAddr);
    spec.fromTag = "ft";
    spec.callId = "call-1";
    spec.cseq = 2;
    spec.viaSentBy = sip::uriForAddr("", aliceAddr);
    spec.branch = "z9hG4bK-bye-redir";
    auto actions = handle(sip::buildRequest(spec).serialize(),
                          aliceAddr);
    // A stray BYE reaching a redirect server is still forwarded.
    ASSERT_EQ(actions.size(), 1u);
    EXPECT_EQ(shared.counters.forwards, 1u);
}

} // namespace
