/**
 * @file
 * Phone behaviour against a scripted peer: UDP sockets standing in for
 * the proxy (and, after a redirect, for the callee's contact) record
 * every message a phone sends and answer as each test scripts it.
 * Covers the digest-challenge retry, the UDP redirect, Retry-After
 * backoff, the caller's INVITE retransmission timer, the callee's 200
 * retransmission, and the replay of an INVITE that races a REGISTER.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/network.hh"
#include "net/udp.hh"
#include "phone/phone.hh"
#include "sim/simulation.hh"
#include "sip/builders.hh"
#include "sip/parser.hh"
#include "sip/timers.hh"

namespace {

using namespace siprox;

constexpr std::uint16_t kProxyPort = 5060;
constexpr std::uint16_t kContactPort = 7000;

/** One message a scripted peer received. */
struct Seen
{
    sim::SimTime at = 0;
    std::uint16_t port = 0; ///< the peer socket it arrived on
    net::Addr src;
    sip::SipMessage msg;
};

class PhoneTest : public ::testing::Test
{
  protected:
    PhoneTest()
        : net(sim), peerMachine(sim.addMachine("peer", 2)),
          phoneMachine(sim.addMachine("phones", 2)),
          peerHost(net.attach(peerMachine)),
          phoneHost(net.attach(phoneMachine))
    {
        listen(kProxyPort);
        listen(kContactPort);
    }

    phone::PhoneConfig
    config(const std::string &user, std::uint16_t port)
    {
        phone::PhoneConfig cfg;
        cfg.user = user;
        cfg.port = port;
        cfg.transport = core::Transport::Udp;
        cfg.proxyAddr = peerHost.addr(kProxyPort);
        return cfg;
    }

    /** Send @p msg from peer socket @p port to @p dst after @p delay. */
    void
    send(std::uint16_t port, net::Addr dst, const sip::SipMessage &msg,
         sim::SimTime delay = 0)
    {
        struct Body
        {
            static sim::Task
            run(sim::Process &p, net::DatagramSocket *sock, net::Addr dst,
                std::string wire, sim::SimTime delay)
            {
                if (delay > 0)
                    co_await p.sleepFor(delay);
                co_await sock->sendTo(p, dst, std::move(wire));
            }
        };
        net::DatagramSocket *sock = socks.at(port);
        std::string wire = msg.serialize();
        peerMachine.spawn("peer-send", 0, [=](sim::Process &p) {
            return Body::run(p, sock, dst, wire, delay);
        });
    }

    /** Answer @p req from the socket it arrived on. */
    void
    answer(const Seen &req, const sip::SipMessage &rsp,
           sim::SimTime delay = 0)
    {
        send(req.port, req.src, rsp, delay);
    }

    /** What arrived at peer socket @p port with @p method (a response
     *  carries its CSeq method), in order. */
    std::vector<const Seen *>
    seen(std::uint16_t port, sip::Method method, bool requests = true) const
    {
        std::vector<const Seen *> out;
        for (const Seen &s : log) {
            if (s.port != port || s.msg.isRequest() != requests)
                continue;
            auto cseq = s.msg.cseq();
            if (cseq && cseq->method == method)
                out.push_back(&s);
        }
        return out;
    }

    /** A 200 from the callee "bob" at the contact socket. */
    sip::SipMessage
    bobOk(const Seen &req)
    {
        return sip::buildResponse(
            req.msg, sip::status::kOk, "bob-tag",
            sip::uriForAddr("bob", peerHost.addr(kContactPort)));
    }

    /** The default proxy script: accept REGISTERs, complete calls. */
    void
    completeCalls(const Seen &s)
    {
        if (!s.msg.isRequest())
            return;
        switch (s.msg.method()) {
          case sip::Method::Register:
          case sip::Method::Bye:
            answer(s, sip::buildResponse(s.msg, sip::status::kOk));
            break;
          case sip::Method::Invite:
            answer(s, bobOk(s));
            break;
          default:
            break;
        }
    }

    sim::Simulation sim{7};
    net::Network net;
    sim::Machine &peerMachine;
    sim::Machine &phoneMachine;
    net::Host &peerHost;
    net::Host &phoneHost;
    /** Scripted reaction to each message a peer socket receives. */
    std::function<void(const Seen &)> script;
    std::vector<Seen> log;

  private:
    void
    listen(std::uint16_t port)
    {
        struct Body
        {
            static sim::Task
            run(sim::Process &p, PhoneTest *t, net::DatagramSocket *sock,
                std::uint16_t port)
            {
                for (;;) {
                    net::Datagram d;
                    co_await sock->recvFrom(p, d);
                    auto parsed = sip::parseMessage(d.payload);
                    if (!parsed.ok)
                        continue;
                    t->log.push_back(Seen{p.sim().now(), port, d.src,
                                          std::move(parsed.message)});
                    if (t->script)
                        t->script(t->log.back());
                }
            }
        };
        net::DatagramSocket *sock = &peerHost.udpBind(port);
        socks[port] = sock;
        peerMachine.spawn("peer", 0, [this, sock, port](sim::Process &p) {
            return Body::run(p, this, sock, port);
        });
    }

    std::map<std::uint16_t, net::DatagramSocket *> socks;
};

std::uint32_t
cseqOf(const Seen *s)
{
    return s->msg.cseq()->number;
}

std::string
branchOf(const Seen *s)
{
    return s->msg.topVia()->branch;
}

sip::SipMessage
challenge(const sip::SipMessage &req)
{
    sip::SipMessage rsp =
        sip::buildResponse(req, sip::status::kUnauthorized);
    rsp.addHeader("WWW-Authenticate",
                  "Digest realm=\"siprox\", nonce=\"n7\"");
    return rsp;
}

TEST_F(PhoneTest, ChallengedInviteRetriesWithCredentialsNextCseqNewBranch)
{
    int invites = 0;
    script = [&](const Seen &s) {
        if (s.msg.isRequest() && s.msg.method() == sip::Method::Invite
            && invites++ == 0) {
            answer(s, challenge(s.msg));
            return;
        }
        completeCalls(s);
    };
    phone::Phone alice(phoneMachine, phoneHost, config("alice", 6000));
    alice.startCaller(1, "bob", nullptr, nullptr, nullptr);
    sim.run();

    EXPECT_EQ(alice.stats().callsCompleted, 1u);
    auto inv = seen(kProxyPort, sip::Method::Invite);
    ASSERT_EQ(inv.size(), 2u);
    EXPECT_FALSE(inv[0]->msg.header("Authorization"));
    auto auth = inv[1]->msg.header("Authorization");
    ASSERT_TRUE(auth);
    EXPECT_EQ(*auth, "Digest username=\"alice\", nonce=\"n7\", "
                     "response=\"0badcafe\"");
    EXPECT_EQ(cseqOf(inv[1]), cseqOf(inv[0]) + 1);
    EXPECT_NE(branchOf(inv[1]), branchOf(inv[0]));
    EXPECT_EQ(inv[1]->msg.callId(), inv[0]->msg.callId());

    // The ACK acknowledges the retried INVITE; the BYE keeps the
    // credentials and takes the next CSeq.
    auto ack = seen(kProxyPort, sip::Method::Ack);
    ASSERT_EQ(ack.size(), 1u);
    EXPECT_EQ(cseqOf(ack[0]), cseqOf(inv[1]));
    auto bye = seen(kProxyPort, sip::Method::Bye);
    ASSERT_EQ(bye.size(), 1u);
    EXPECT_EQ(cseqOf(bye[0]), cseqOf(inv[1]) + 1);
    EXPECT_TRUE(bye[0]->msg.header("Authorization"));
}

TEST_F(PhoneTest, SecondChallengeFailsTheCall)
{
    script = [&](const Seen &s) {
        if (s.msg.isRequest() && s.msg.method() == sip::Method::Invite) {
            answer(s, challenge(s.msg));
            return;
        }
        completeCalls(s);
    };
    phone::Phone alice(phoneMachine, phoneHost, config("alice", 6000));
    alice.startCaller(1, "bob", nullptr, nullptr, nullptr);
    sim.run();

    EXPECT_EQ(alice.stats().callsFailed, 1u);
    EXPECT_EQ(alice.stats().callsCompleted, 0u);
    EXPECT_EQ(seen(kProxyPort, sip::Method::Invite).size(), 2u);
    EXPECT_TRUE(seen(kProxyPort, sip::Method::Ack).empty());
    EXPECT_TRUE(seen(kProxyPort, sip::Method::Bye).empty());
}

TEST_F(PhoneTest, UdpRedirectSendsInviteAckAndByeToTheContact)
{
    const sip::SipUri contact =
        sip::uriForAddr("bob", peerHost.addr(kContactPort));
    script = [&](const Seen &s) {
        if (s.port == kProxyPort && s.msg.isRequest()
            && s.msg.method() == sip::Method::Invite) {
            answer(s, sip::buildResponse(s.msg,
                                         sip::status::kMovedTemporarily,
                                         "", contact));
            return;
        }
        completeCalls(s);
    };
    phone::Phone alice(phoneMachine, phoneHost, config("alice", 6000));
    alice.startCaller(1, "bob", nullptr, nullptr, nullptr);
    sim.run();

    EXPECT_EQ(alice.stats().callsCompleted, 1u);
    auto via_proxy = seen(kProxyPort, sip::Method::Invite);
    ASSERT_EQ(via_proxy.size(), 1u);
    auto direct = seen(kContactPort, sip::Method::Invite);
    ASSERT_EQ(direct.size(), 1u);
    EXPECT_EQ(direct[0]->msg.requestUri().toString(), contact.toString());
    EXPECT_EQ(cseqOf(direct[0]), cseqOf(via_proxy[0]) + 1);
    EXPECT_NE(branchOf(direct[0]), branchOf(via_proxy[0]));
    // The rest of the call bypasses the proxy.
    EXPECT_EQ(seen(kContactPort, sip::Method::Ack).size(), 1u);
    EXPECT_EQ(seen(kContactPort, sip::Method::Bye).size(), 1u);
    EXPECT_TRUE(seen(kProxyPort, sip::Method::Ack).empty());
    EXPECT_TRUE(seen(kProxyPort, sip::Method::Bye).empty());
}

TEST_F(PhoneTest, RetryAfterOf503SetsTheBackoff)
{
    int invites = 0;
    sim::SimTime rejected_at = 0;
    script = [&](const Seen &s) {
        if (s.msg.isRequest() && s.msg.method() == sip::Method::Invite
            && invites++ == 0) {
            sip::SipMessage rsp = sip::buildResponse(
                s.msg, sip::status::kServiceUnavailable);
            rsp.addHeader("Retry-After", "2");
            rejected_at = s.at;
            answer(s, rsp);
            return;
        }
        completeCalls(s);
    };
    phone::PhoneConfig cfg = config("alice", 6000);
    cfg.retryBackoffCap = sim::secs(60);
    phone::Phone alice(phoneMachine, phoneHost, cfg);
    alice.startCaller(2, "bob", nullptr, nullptr, nullptr);
    sim.run();

    EXPECT_EQ(alice.stats().rejected503, 1u);
    EXPECT_EQ(alice.stats().backoffs, 1u);
    EXPECT_EQ(alice.stats().callsFailed, 1u);
    EXPECT_EQ(alice.stats().callsCompleted, 1u);
    auto inv = seen(kProxyPort, sip::Method::Invite);
    ASSERT_EQ(inv.size(), 2u);
    // The advertised 2 s is a floor, plus at most 50% upward jitter.
    sim::SimTime gap = inv[1]->at - rejected_at;
    EXPECT_GE(gap, sim::secs(2));
    EXPECT_LT(gap, sim::secs(3) + sim::msecs(10));
}

TEST_F(PhoneTest, UdpInviteRetransmitsT1DoublingToT2UntilProvisional)
{
    // Silent for six copies (0, 0.5, 1.5, 3.5, 7.5, 11.5 s), then a
    // 180; the 200 comes 6 s later, past where a seventh copy was due.
    int invites = 0;
    script = [&](const Seen &s) {
        if (s.msg.isRequest() && s.msg.method() == sip::Method::Invite) {
            if (++invites == 6) {
                answer(s, sip::buildResponse(s.msg, sip::status::kRinging,
                                             "bob-tag"));
                answer(s, bobOk(s), sim::secs(6));
            }
            return;
        }
        completeCalls(s);
    };
    phone::PhoneConfig cfg = config("alice", 6000);
    cfg.responseTimeout = sim::secs(30);
    phone::Phone alice(phoneMachine, phoneHost, cfg);
    alice.startCaller(1, "bob", nullptr, nullptr, nullptr);
    sim.run();

    EXPECT_EQ(alice.stats().callsCompleted, 1u);
    EXPECT_EQ(alice.stats().retransmissions, 5u);
    auto inv = seen(kProxyPort, sip::Method::Invite);
    ASSERT_EQ(inv.size(), 6u);
    const sim::SimTime t1 = sip::timers::kT1;
    const sim::SimTime want[] = {t1, 2 * t1, 4 * t1, sip::timers::kT2,
                                 sip::timers::kT2};
    for (std::size_t i = 1; i < inv.size(); ++i) {
        sim::SimTime gap = inv[i]->at - inv[i - 1]->at;
        EXPECT_GE(gap, want[i - 1]) << "copy " << i;
        EXPECT_LT(gap, want[i - 1] + sim::msecs(2)) << "copy " << i;
        EXPECT_EQ(cseqOf(inv[i]), cseqOf(inv[0]));
        EXPECT_EQ(branchOf(inv[i]), branchOf(inv[0]));
    }
    EXPECT_EQ(seen(kProxyPort, sip::Method::Ack).size(), 1u);
}

/** An INVITE for the callee "bob" from "carol", sent via the proxy
 *  socket so bob answers to its Via. */
sip::SipMessage
inviteFor(const phone::Phone &bob, net::Addr proxy)
{
    sip::RequestSpec spec;
    spec.method = sip::Method::Invite;
    spec.requestUri = bob.contactUri();
    spec.from = sip::uriForAddr("carol", proxy);
    spec.to = sip::uriForAddr("bob", proxy);
    spec.fromTag = "carol-1";
    spec.callId = "carol-call-1";
    spec.cseq = 1;
    spec.viaSentBy = sip::uriForAddr("", proxy);
    spec.branch = "z9hG4bK-carol-1";
    spec.contact = sip::uriForAddr("carol", proxy);
    return sip::buildRequest(spec);
}

/** The ACK or BYE in carol's call to bob, after bob's 200. */
sip::SipMessage
inDialog(const sip::SipMessage &invite, const sip::SipMessage &ok,
         sip::Method method, std::uint32_t cseq, const std::string &branch)
{
    sip::SipMessage req = sip::SipMessage::request(method,
                                                   invite.requestUri());
    sip::Via via = *invite.topVia();
    via.branch = branch;
    req.addHeader("Via", via.toString());
    req.addHeader("Max-Forwards", "70");
    req.addHeader("From", invite.from());
    req.addHeader("To", ok.to());
    req.addHeader("Call-ID", invite.callId());
    req.addHeader("CSeq", sip::CSeq{cseq, method}.toString());
    return req;
}

TEST_F(PhoneTest, CalleeResendsOkUntilTheAck)
{
    phone::Phone bob(phoneMachine, phoneHost, config("bob", 16000));
    const sip::SipMessage invite =
        inviteFor(bob, peerHost.addr(kProxyPort));
    const net::Addr bob_addr = phoneHost.addr(16000);
    int oks = 0;
    script = [&](const Seen &s) {
        if (s.msg.isRequest()) {
            if (s.msg.method() == sip::Method::Register) {
                answer(s, sip::buildResponse(s.msg, sip::status::kOk));
                send(kProxyPort, bob_addr, invite, sim::msecs(100));
            }
            return;
        }
        auto cseq = s.msg.cseq();
        if (cseq->method != sip::Method::Invite
            || s.msg.statusCode() != sip::status::kOk || ++oks != 4)
            return;
        // ACK the fourth copy; hang up 3 s later.
        send(kProxyPort, bob_addr,
             inDialog(invite, s.msg, sip::Method::Ack, 1, "z9hG4bK-a"));
        send(kProxyPort, bob_addr,
             inDialog(invite, s.msg, sip::Method::Bye, 2, "z9hG4bK-b"),
             sim::secs(3));
    };
    bob.startCallee(1, nullptr, nullptr);
    sim.run();

    EXPECT_EQ(bob.stats().callsCompleted, 1u);
    EXPECT_EQ(bob.stats().retransmissions, 3u);
    auto rsp = seen(kProxyPort, sip::Method::Invite, false);
    ASSERT_EQ(rsp.size(), 5u); // 180 and four copies of the 200
    EXPECT_EQ(rsp[0]->msg.statusCode(), sip::status::kRinging);
    const sim::SimTime t1 = sip::timers::kT1;
    const sim::SimTime want[] = {t1, 2 * t1, 4 * t1};
    for (std::size_t i = 2; i < rsp.size(); ++i) {
        EXPECT_EQ(rsp[i]->msg.statusCode(), sip::status::kOk);
        sim::SimTime gap = rsp[i]->at - rsp[i - 1]->at;
        EXPECT_GE(gap, want[i - 2]) << "copy " << i;
        EXPECT_LT(gap, want[i - 2] + sim::msecs(2)) << "copy " << i;
    }
    auto bye_ok = seen(kProxyPort, sip::Method::Bye, false);
    ASSERT_EQ(bye_ok.size(), 1u);
    EXPECT_EQ(bye_ok[0]->msg.statusCode(), sip::status::kOk);
}

TEST_F(PhoneTest, InviteDuringRegisterIsReplayedToTheCallee)
{
    phone::Phone bob(phoneMachine, phoneHost, config("bob", 16000));
    const sip::SipMessage invite =
        inviteFor(bob, peerHost.addr(kProxyPort));
    const net::Addr bob_addr = phoneHost.addr(16000);
    sim::SimTime registered_at = 0;
    script = [&](const Seen &s) {
        if (s.msg.isRequest()) {
            if (s.msg.method() == sip::Method::Register) {
                // The INVITE overtakes the REGISTER's 200.
                send(kProxyPort, bob_addr, invite);
                answer(s, sip::buildResponse(s.msg, sip::status::kOk),
                       sim::msecs(50));
                registered_at = s.at + sim::msecs(50);
            }
            return;
        }
        if (s.msg.cseq()->method == sip::Method::Invite
            && s.msg.statusCode() == sip::status::kOk) {
            send(kProxyPort, bob_addr,
                 inDialog(invite, s.msg, sip::Method::Ack, 1, "z9hG4bK-a"));
            send(kProxyPort, bob_addr,
                 inDialog(invite, s.msg, sip::Method::Bye, 2, "z9hG4bK-b"),
                 sim::msecs(10));
        }
    };
    bob.startCallee(1, nullptr, nullptr);
    sim.run();

    EXPECT_EQ(bob.stats().registers, 1u);
    EXPECT_EQ(bob.stats().callsCompleted, 1u);
    auto rsp = seen(kProxyPort, sip::Method::Invite, false);
    ASSERT_EQ(rsp.size(), 2u);
    EXPECT_EQ(rsp[0]->msg.statusCode(), sip::status::kRinging);
    EXPECT_GE(rsp[0]->at, registered_at);
    EXPECT_EQ(rsp[1]->msg.statusCode(), sip::status::kOk);
    EXPECT_EQ(rsp[1]->msg.callId(), "carol-call-1");
}

} // namespace
