/**
 * @file
 * Transport-independent SIP proxying: parse, transaction handling,
 * location routing, Via push/pop, and response construction. Each
 * worker owns one Engine; the architecture-specific code (UDP/TCP/SCTP
 * workers) performs the sends that the Engine emits as SendActions.
 *
 * Every response the Engine originates for a request (100 Trying,
 * REGISTER 200/400, 404, the 401 challenge, both 503 rejects, the 302
 * redirect) leaves through one replyTo(), which attaches the hop
 * feedback, charges the serialize, emits the SendAction back to the
 * request's source and counts the local reply. Only the Timer B 408
 * builds its own: it is serialized before the transaction lookup that
 * finds where it goes.
 *
 * The Engine charges all user-level CPU costs and takes the shared
 * locks itself, so lock contention behaves identically across
 * architectures (as it does in OpenSER, §3).
 */

#ifndef SIPROX_CORE_ENGINE_HH
#define SIPROX_CORE_ENGINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/shared.hh"
#include "net/addr.hh"
#include "sim/process.hh"
#include "sim/task.hh"
#include "sip/builders.hh"
#include "sip/parser.hh"
#include "sip/transaction.hh"

namespace siprox::core {

/** Where an incoming message came from. */
struct MsgSource
{
    net::Addr addr;
    /** TCP connection id it arrived on (0 for datagram transports). */
    std::uint64_t connId = 0;
};

/** One message the worker must transmit. */
struct SendAction
{
    std::string wire;
    net::Addr dstAddr;
    /** Preferred existing TCP connection (0: resolve by address). */
    std::uint64_t dstConnId = 0;
};

/**
 * Per-worker SIP proxy engine over the shared state.
 */
class Engine
{
  public:
    Engine(SharedState &shared, const ProxyConfig &cfg,
           net::Addr proxy_addr, int worker_id);

    /**
     * Process one raw SIP message.
     *
     * @param p The worker process (CPU charges and lock waits).
     * @param raw Wire bytes of exactly one message.
     * @param src Origin of the message.
     * @param out Receives the transmissions to perform, in order.
     */
    sim::Task handleMessage(sim::Process &p, std::string raw,
                            MsgSource src,
                            std::vector<SendAction> &out);

    /**
     * Timer B/F fired for a forwarded request that never drew a final
     * response: answer the caller with 408 Request Timeout and put the
     * transaction record on the expiry queue so the table is reclaimed
     * even under sustained loss.
     */
    sim::Task handleTimeout(sim::Process &p,
                            const RetransList::TimedOut &to,
                            std::vector<SendAction> *out);

  private:
    sim::Task handleRegister(sim::Process &p, sip::SipMessage msg,
                             MsgSource src,
                             std::vector<SendAction> *out);
    sim::Task handleRequest(sim::Process &p, sip::SipMessage msg,
                            MsgSource src,
                            std::vector<SendAction> *out);
    sim::Task handleResponse(sim::Process &p, sip::SipMessage msg,
                             MsgSource src,
                             std::vector<SendAction> *out);

    /** Digest authentication gate: challenges or verifies. */
    sim::Task checkAuth(sim::Process &p, const sip::SipMessage &msg,
                        MsgSource src, std::vector<SendAction> *out,
                        bool *accepted);

    /** Send a locally generated response back to the request's
     *  source: attach the hop feedback, charge the serialize and count
     *  a local reply. Every response the engine originates for a
     *  request leaves through here. Pass @p rsp as a prvalue: a named
     *  response moved in would sit in the caller's frame twice. */
    sim::Task replyTo(sim::Process &p, sip::SipMessage rsp, MsgSource src,
                      std::vector<SendAction> *out);

    /** replyTo() with the bare @p status response to @p req (naming
     *  @p contact, for a redirect). A plain function returning
     *  replyTo's task: the response is built here and moved into that
     *  frame, so the awaiting handler keeps no copy in its own. */
    sim::Task reply(sim::Process &p, const sip::SipMessage &req,
                    int status, MsgSource src,
                    std::vector<SendAction> *out,
                    const sip::SipUri *contact = nullptr);

    /** reply() with a 503 asking the caller to wait @p retry_after
     *  seconds (RFC 3261 §21.5.4). */
    sim::Task reject(sim::Process &p, const sip::SipMessage &req,
                     int retry_after, MsgSource src,
                     std::vector<SendAction> *out);

    /** The forwarded copy of @p req: Max-Forwards @p max_forwards,
     *  aimed at @p target, under this hop's Via with @p branch. */
    std::string forwardWire(const sip::SipMessage &req, int max_forwards,
                            const sip::SipUri &target,
                            const std::string &branch) const;

    /** The 401 digest challenge to @p req, with a fresh nonce. */
    sip::SipMessage challenge(const sip::SipMessage &req);

    /** Piggyback this proxy's hop-by-hop overload advertisement on a
     *  response about to be sent upstream (no-op when the hop scheme
     *  is off). Plain state arithmetic: no awaits, no allocations
     *  beyond the arena intern of the rendered value. */
    void attachHopFeedback(sip::SipMessage &rsp, sim::SimTime now);

    /** Resolve a destination address to a TCP connection id (0 if none
     *  or not TCP). Takes and releases the connection-table lock. */
    sim::Task resolveConn(sim::Process &p, net::Addr dst,
                          std::uint64_t *conn_id);

    bool tcp() const { return isStreamTransport(cfg_.transport); }
    bool unreliable() const { return cfg_.transport == Transport::Udp; }
    const char *viaTransport() const;

    /** Apply the resident-state pressure factor to a base cost. */
    sim::SimTime scaled(sim::SimTime base) const;

    SharedState &shared_;
    const ProxyConfig &cfg_;
    net::Addr proxyAddr_;
    /** Our Via host name ("h<id>"), built once instead of per message. */
    std::string viaHost_;
    sip::BranchGenerator branches_;
    std::uint64_t nonce_ = 0;

    // Interned cost centers (named after OpenSER function groups).
    sim::CostCenterId ccParse_;
    sim::CostCenterId ccRoute_;
    sim::CostCenterId ccBuild_;
    sim::CostCenterId ccTm_;
    sim::CostCenterId ccUsrloc_;
    sim::CostCenterId ccTimer_;
    sim::CostCenterId ccConnHash_;
};

} // namespace siprox::core

#endif // SIPROX_CORE_ENGINE_HH
