#include "core/engine.hh"

#include <algorithm>
#include <cstdio>

#include "sip/timers.hh"

namespace siprox::core {

namespace {

/** Re-check period of a forward parked by the hop gate's hold. */
constexpr sim::SimTime kHopHoldTick = sim::msecs(10);

} // namespace

const char *
transportName(Transport t)
{
    switch (t) {
      case Transport::Udp:
        return "UDP";
      case Transport::Tcp:
        return "TCP";
      case Transport::Sctp:
        return "SCTP";
      case Transport::Tls:
        return "TLS";
      case Transport::Sst:
        return "SST";
    }
    return "?";
}

Engine::Engine(SharedState &shared, const ProxyConfig &cfg,
               net::Addr proxy_addr, int worker_id)
    : shared_(shared), cfg_(cfg), proxyAddr_(proxy_addr),
      viaHost_("h" + std::to_string(proxy_addr.host)),
      branches_(cfg.branchSaltBase + static_cast<std::uint64_t>(worker_id)),
      ccParse_(sim::CostCenters::id("ser:parse_msg")),
      ccRoute_(sim::CostCenters::id("ser:route")),
      ccBuild_(sim::CostCenters::id("ser:build_fwd")),
      ccTm_(sim::CostCenters::id("ser:tm")),
      ccUsrloc_(sim::CostCenters::id("ser:usrloc")),
      ccTimer_(sim::CostCenters::id("ser:timer")),
      ccConnHash_(sim::CostCenters::id("ser:tcpconn_hash"))
{
}

const char *
Engine::viaTransport() const
{
    return transportName(cfg_.transport);
}

sim::SimTime
Engine::scaled(sim::SimTime base) const
{
    double entries = static_cast<double>(shared_.conns.size())
        + static_cast<double>(shared_.registrar.size())
        + static_cast<double>(shared_.retrans.size());
    return static_cast<sim::SimTime>(
        static_cast<double>(base)
        * (1.0 + entries / cfg_.costs.statePressureScale));
}

sim::Task
Engine::handleMessage(sim::Process &p, std::string raw, MsgSource src,
                      std::vector<SendAction> &out)
{
    ++shared_.counters.messagesIn;
    // Panic shedding happens before the parse charge: past the panic
    // watermark even 503 generation is unaffordable, so datagrams are
    // dropped unread. Stream transports never drop (reads pause
    // instead, so kernel flow control pushes back).
    if (!isStreamTransport(cfg_.transport)
        && shared_.overload.panicDrop(p.sim().now()))
        co_return;
    // On/off hop restriction, panic variant: with the next hop stopped
    // and our own queue past the panic watermark, new INVITEs are
    // dropped before the parse charge — the cheapest possible shed.
    // Datagram only, and only when the restriction is positively known
    // (fresh feedback); a first-line peek costs nothing extra.
    if (!isStreamTransport(cfg_.transport) && cfg_.nextHop.valid()
        && shared_.hopGate.enabled()
        && shared_.overload.queuePanicked()
        && shared_.hopGate.restricted(cfg_.nextHop, p.sim().now())
        && raw.starts_with("INVITE ")) {
        ++shared_.counters.hopThrottleDrops;
        co_return;
    }
    co_await p.cpu(scaled(cfg_.costs.parse), ccParse_);
    // Zero-copy: the datagram/frame buffer becomes the message arena.
    auto parsed = sip::parseOwned(std::move(raw));
    if (!parsed.ok) {
        ++shared_.counters.parseErrors;
        co_return;
    }
    sip::SipMessage &msg = parsed.message;

    // The Call-ID is the causal trace id: set at the phone, carried
    // end to end, and recovered here so every proxy-side span joins
    // the call it serves.
    if (sim::trace::SpanCtx *span = p.span()) {
        std::string_view cid = msg.callId();
        span->traceId = sim::trace::traceIdFor(cid);
        span->callId.assign(cid);
        if (msg.isRequest()) {
            span->label = sip::methodName(msg.method());
        } else {
            span->label =
                "rsp " + std::to_string(msg.statusCode());
        }
    }

    if (msg.isRequest()) {
        ++shared_.counters.requestsIn;
        if (cfg_.authenticate && msg.method() != sip::Method::Ack) {
            bool accepted = false;
            co_await checkAuth(p, msg, src, &out, &accepted);
            if (!accepted)
                co_return;
        }
        // Aliases are refreshed by REGISTER handling only; per-request
        // refreshes would take the shared hash lock on every message
        // (phones re-REGISTER when they re-establish connections).
        if (msg.method() == sip::Method::Register)
            co_await handleRegister(p, std::move(msg), src, &out);
        else
            co_await handleRequest(p, std::move(msg), src, &out);
    } else {
        ++shared_.counters.responsesIn;
        co_await handleResponse(p, std::move(msg), src, &out);
    }
}

sim::Task
Engine::checkAuth(sim::Process &p, const sip::SipMessage &msg,
                  MsgSource src, std::vector<SendAction> *out,
                  bool *accepted)
{
    static const auto cc_auth = sim::CostCenters::id("ser:auth");
    auto auth = msg.header("Authorization");
    if (!auth || auth->find("response=") == std::string_view::npos) {
        // Challenge with a fresh nonce (RFC 2617 digest).
        ++shared_.counters.authChallenges;
        co_await p.cpu(cfg_.costs.authChallenge, cc_auth);
        *accepted = false;
        co_await replyTo(p, challenge(msg), src, out);
        co_return;
    }
    // Verify: credential fetch (the expensive part, per Nahum et al.)
    // plus the digest computation.
    co_await p.cpu(cfg_.costs.authDbLookup + cfg_.costs.authCheck,
                   cc_auth);
    ++shared_.counters.authAccepted;
    *accepted = true;
}

void
Engine::attachHopFeedback(sip::SipMessage &rsp, sim::SimTime now)
{
    if (!cfg_.overload.hop.enabled())
        return;
    HopFeedback fb = shared_.overload.advertiseFeedback(now);
    // Hop-by-hop cascade: a relay must not advertise more than it can
    // itself forward. Clamping the local grant by the one this hop
    // holds toward its own next hop propagates a downstream
    // bottleneck's restriction upstream one response at a time, until
    // the edge sheds excess load before the chain has spent any
    // parse/forward cost on it — without this, a healthy middle hop
    // advertises its own idle capacity and the edge never throttles.
    if (cfg_.nextHop.valid() && shared_.hopGate.enabled()) {
        switch (fb.scheme) {
        case FeedbackScheme::Rate:
            fb.rate = std::min(
                fb.rate, shared_.hopGate.grantedRate(cfg_.nextHop));
            break;
        case FeedbackScheme::Window:
            fb.window = std::min(
                fb.window,
                shared_.hopGate.grantedWindow(cfg_.nextHop));
            break;
        case FeedbackScheme::OnOff:
            if (shared_.hopGate.restricted(cfg_.nextHop, now))
                fb.on = false;
            break;
        case FeedbackScheme::None:
            break;
        }
    }
    char buf[48];
    std::size_t n = renderHopFeedback(fb, buf, sizeof(buf));
    if (n == 0)
        return;
    // addHeader interns the value into the message arena, so the stack
    // buffer never escapes and the hot path stays allocation-free.
    rsp.addHeader("Overload", std::string_view(buf, n));
    ++shared_.counters.hopFeedbackSent;
}

sip::SipMessage
Engine::challenge(const sip::SipMessage &req)
{
    sip::SipMessage rsp =
        sip::buildResponse(req, sip::status::kUnauthorized);
    char value[64];
    int n = std::snprintf(value, sizeof(value),
                          "Digest realm=\"siprox\", nonce=\"n%llu\"",
                          static_cast<unsigned long long>(++nonce_));
    rsp.addHeader("WWW-Authenticate",
                  std::string_view(value, static_cast<std::size_t>(n)));
    return rsp;
}

std::string
Engine::forwardWire(const sip::SipMessage &req, int max_forwards,
                    const sip::SipUri &target,
                    const std::string &branch) const
{
    sip::SipMessage fwd = req;
    fwd.setMaxForwards(max_forwards);
    fwd.setRequestUri(target);
    sip::Via via;
    via.transport = viaTransport();
    via.host = viaHost_;
    via.port = proxyAddr_.port;
    via.branch = branch;
    fwd.prependVia(via);
    return fwd.serialize();
}

sim::Task
Engine::reply(sim::Process &p, const sip::SipMessage &req, int status,
              MsgSource src, std::vector<SendAction> *out,
              const sip::SipUri *contact)
{
    return replyTo(p,
                   sip::buildResponse(req, status, "",
                                      contact ? std::optional(*contact)
                                              : std::nullopt),
                   src, out);
}

sim::Task
Engine::reject(sim::Process &p, const sip::SipMessage &req,
               int retry_after, MsgSource src, std::vector<SendAction> *out)
{
    sip::SipMessage rsp =
        sip::buildResponse(req, sip::status::kServiceUnavailable);
    rsp.addHeader("Retry-After", std::to_string(retry_after));
    return replyTo(p, std::move(rsp), src, out);
}

sim::Task
Engine::replyTo(sim::Process &p, sip::SipMessage rsp, MsgSource src,
                std::vector<SendAction> *out)
{
    attachHopFeedback(rsp, p.sim().now());
    co_await p.cpu(scaled(cfg_.costs.serialize), ccBuild_);
    out->push_back({rsp.serialize(), src.addr, src.connId});
    ++shared_.counters.localReplies;
}

sim::Task
Engine::resolveConn(sim::Process &p, net::Addr dst,
                    std::uint64_t *conn_id)
{
    *conn_id = 0;
    if (!tcp())
        co_return;
    co_await shared_.conns.lock().acquire(p);
    co_await p.cpu(cfg_.costs.connLookup, ccConnHash_);
    if (TcpConnObj *obj = shared_.conns.byAddr(dst))
        *conn_id = obj->id;
    shared_.conns.lock().release();
}

sim::Task
Engine::handleRegister(sim::Process &p, sip::SipMessage msg,
                       MsgSource src, std::vector<SendAction> *out)
{
    auto contact = msg.contactUri();
    auto to_uri = sip::uriFromNameAddr(msg.to());
    if (!contact || !to_uri) {
        co_await reply(p, msg, sip::status::kBadRequest, src, out);
        co_return;
    }
    co_await shared_.registrar.lock().acquire(p);
    co_await p.cpu(cfg_.costs.registrarUpdate, ccUsrloc_);
    shared_.registrar.update(to_uri->user,
                             Binding{*contact, src.connId});
    shared_.registrar.lock().release();

    if (shared_.location.enabled()) {
        if (shared_.location.owns(to_uri->user)) {
            // Owner shard: replicate the binding to the peers after
            // the configured lag (the replicator process drains the
            // queue and pushes over the replication sockets).
            co_await shared_.location.lock().acquire(p);
            shared_.location.queuePush(to_uri->user,
                                       contact->toString(),
                                       p.sim().now());
            shared_.location.lock().release();
            ++shared_.counters.locReplPushes;
        } else {
            // The dispatcher pins REGISTERs to the owner, so this is
            // the defensive path (direct registration at the wrong
            // instance): the binding is stored locally and counted,
            // but never replicated — it is not ours to own.
            ++shared_.counters.locRegisterForwards;
        }
    }

    if (tcp()) {
        // The contact address must route over this connection.
        if (auto addr = sip::addrFromUri(*contact)) {
            co_await shared_.conns.lock().acquire(p);
            co_await p.cpu(cfg_.costs.connLookup, ccConnHash_);
            shared_.conns.setAlias(*addr, src.connId);
            shared_.conns.lock().release();
        }
    }
    ++shared_.counters.registrations;
    co_await reply(p, msg, sip::status::kOk, src, out);
}

sim::Task
Engine::handleRequest(sim::Process &p, sip::SipMessage msg,
                      MsgSource src, std::vector<SendAction> *out)
{
    const bool stateful = cfg_.stateful;
    const bool is_invite = msg.method() == sip::Method::Invite;
    const bool is_ack = msg.method() == sip::Method::Ack;

    auto key = sip::transactionKey(msg);
    if (stateful && key) {
        co_await shared_.txns.lock().acquire(p);
        co_await p.cpu(scaled(cfg_.costs.txnLookup), ccTm_);
        auto rec = shared_.txns.find(*key);
        if (rec) {
            if (is_ack) {
                // ACK for a locally known INVITE transaction
                // (non-2xx): absorbed, not forwarded.
                rec->state = TxnRecord::State::Terminated;
                shared_.txns.lock().release();
                co_return;
            }
            // Retransmitted request: replay the last response.
            ++shared_.counters.retransAbsorbed;
            std::string replay = rec->lastResponse;
            net::Addr up_addr = rec->upstreamAddr;
            std::uint64_t up_conn = rec->upstreamConnId;
            shared_.txns.lock().release();
            if (!replay.empty())
                out->push_back({std::move(replay), up_addr, up_conn});
            co_return;
        }
        shared_.txns.lock().release();
    }

    // Hop-by-hop gate: new INVITEs toward the next hop must fit the
    // grant the downstream advertised, checked before any routing or
    // forwarding cost is spent. In-dialog work (ACK, BYE) and
    // responses always pass — finishing admitted calls is the point.
    bool hop_gated = false;
    if (is_invite && cfg_.nextHop.valid() && shared_.hopGate.enabled()) {
        auto gate = shared_.hopGate.tryAdmit(cfg_.nextHop, p.sim().now());
        if (gate == HopThrottleTable::Gate::Busy
            && cfg_.overload.hop.holdMax > 0) {
            // Park for a grant instead of rejecting outright (never
            // under the event-driven arch: holdMax is forced to 0).
            ++shared_.counters.hopThrottleHolds;
            const sim::SimTime give_up =
                p.sim().now() + cfg_.overload.hop.holdMax;
            while (gate == HopThrottleTable::Gate::Busy
                   && p.sim().now() < give_up) {
                co_await p.sleepFor(
                    std::min(kHopHoldTick, give_up - p.sim().now()),
                    "hop-throttled", sim::trace::Wait::Throttled);
                gate = shared_.hopGate.tryAdmit(cfg_.nextHop,
                                                p.sim().now());
            }
        }
        if (gate == HopThrottleTable::Gate::Busy) {
            ++shared_.counters.hopThrottleRejects;
            co_await reject(p, msg, cfg_.overload.hop.retryAfterSecs, src,
                            out);
            co_return;
        }
        // Window admits reserve a pending slot; remember to release it
        // exactly once (final response, Timer B, or abort below).
        hop_gated =
            cfg_.overload.hop.scheme == FeedbackScheme::Window;
    }

    // Admission control: only genuinely new INVITEs are sheddable.
    // Retransmits were absorbed above, and in-dialog work (ACK, BYE)
    // is always admitted — finishing admitted calls is what preserves
    // goodput under overload.
    if (is_invite && shared_.overload.enabled()) {
        auto adm = shared_.overload.admitRequest(p.sim().now());
        if (adm != OverloadController::Admission::Admit) {
            if (hop_gated)
                shared_.hopGate.noteAborted(cfg_.nextHop);
            if (adm == OverloadController::Admission::Reject) {
                co_await reject(p, msg, cfg_.overload.retryAfterSecs, src,
                                out);
            }
            co_return;
        }
    }

    // A stateful proxy takes responsibility with 100 Trying (§2 step 2).
    std::string trying_wire;
    if (stateful && is_invite) {
        co_await reply(p, msg, sip::status::kTrying, src, out);
        trying_wire = out->back().wire;
    }

    // --- routing ---------------------------------------------------------
    co_await p.cpu(scaled(cfg_.costs.route), ccRoute_);
    sip::SipUri target;
    std::optional<net::Addr> dst;
    if (cfg_.nextHop.valid()) {
        // Chained: every non-REGISTER request goes to the next hop
        // with its request-URI untouched; only the chain destination
        // consults a registrar (phones register at their home proxy).
        target = msg.requestUri();
        dst = cfg_.nextHop;
    } else {
        const std::string user = msg.requestUri().user;

        // Cluster path: when another instance's shard owns the callee,
        // either serve from the async-replicated local copy (stale
        // reads) or forward the request itself to the owner over a
        // real inter-proxy socket — the second hop pays full
        // parse/route/serialize there.
        bool routed = false;
        LocationService &loc = shared_.location;
        if (loc.enabled() && !loc.owns(user)) {
            if (loc.config().staleReads) {
                co_await loc.lock().acquire(p);
                co_await p.cpu(scaled(cfg_.costs.replicaLookup),
                               ccUsrloc_);
                auto replica = loc.replicaLookup(user);
                loc.lock().release();
                if (replica) {
                    target = replica->contact;
                    dst = sip::addrFromUri(target);
                    if (dst) {
                        ++shared_.counters.locReplicaHits;
                        routed = true;
                    }
                }
            }
            if (!routed) {
                ++shared_.counters.locMissForwards;
                target = msg.requestUri(); // the owner re-routes it
                dst = loc.peerAddr(loc.owner(user));
                routed = dst->valid();
            }
        }

        if (!routed) {
            co_await shared_.registrar.lock().acquire(p);
            co_await p.cpu(scaled(cfg_.costs.registrarLookup),
                           ccUsrloc_);
            auto binding = shared_.registrar.lookup(user);
            shared_.registrar.lock().release();

            if (binding) {
                if (loc.enabled())
                    ++shared_.counters.locLocalHits;
                target = binding->contact;
                dst = sip::addrFromUri(target);
            } else {
                // Unregistered: a request-URI naming another host is
                // routed there directly.
                target = msg.requestUri();
                dst = sip::addrFromUri(target);
                if (dst && *dst == proxyAddr_)
                    dst.reset();
            }
            if (!dst) {
                ++shared_.counters.routeFailures;
                if (!is_ack)
                    co_await reply(p, msg, sip::status::kNotFound, src,
                                   out);
                co_return;
            }
        }
    }

    // Redirect-server mode (paper Â§2): remove ourselves from the
    // transaction by handing the caller the registered contact.
    if (cfg_.redirect && is_invite) {
        ++shared_.counters.redirects;
        co_await reply(p, msg, sip::status::kMovedTemporarily, src, out,
                       &target);
        co_return;
    }

    // --- build the forwarded request ---------------------------------------
    int mf = msg.maxForwards().value_or(70);
    if (mf <= 0) {
        ++shared_.counters.routeFailures;
        if (hop_gated)
            shared_.hopGate.noteAborted(cfg_.nextHop);
        co_return; // loop guard: drop
    }
    // The message is rendered before the serialize charge: building
    // it in a plain function keeps the copy out of this frame.
    sip::TransactionKey client_key{branches_.next(),
                                   is_ack ? sip::Method::Ack
                                          : msg.method()};
    std::string wire =
        forwardWire(msg, mf - 1, target, client_key.branch);
    co_await p.cpu(scaled(cfg_.costs.serialize), ccBuild_);

    // --- transaction state -------------------------------------------------
    if (stateful && key && !is_ack) {
        const sim::SimTime created = p.sim().now();
        co_await shared_.txns.lock().acquire(p);
        co_await p.cpu(scaled(cfg_.costs.txnCreate), ccTm_);
        // The TRYING absorbs caller-side INVITE retransmissions until
        // a downstream response replaces it.
        shared_.txns.insert(TxnRecord{
            .serverKey = *key,
            .clientKey = client_key,
            .method = msg.method(),
            .upstreamAddr = src.addr,
            .upstreamConnId = src.connId,
            .createdAt = created,
            .hopGated = hop_gated,
            .lastResponse = std::move(trying_wire),
        });
        hop_gated = false; // the record now owns the window slot
        shared_.txns.lock().release();

        if (unreliable()) {
            // The proxy now owns retransmission (§2): arm a timer on
            // the global list for the forwarded request.
            const sim::SimTime armed = p.sim().now();
            co_await shared_.retrans.lock().acquire(p);
            co_await p.cpu(cfg_.costs.timerArm, ccTimer_);
            shared_.retrans.arm(RetransList::Entry{
                .key = client_key,
                .wire = wire,
                .dst = *dst,
                .nextAt = armed + sip::timers::kT1,
                .interval = sip::timers::kT1,
                .deadline = armed + sip::timers::kTimerB,
                .invite = is_invite,
            });
            shared_.retrans.lock().release();
        }
    }

    std::uint64_t dst_conn = 0;
    co_await resolveConn(p, *dst, &dst_conn);
    out->push_back({std::move(wire), *dst, dst_conn});
    ++shared_.counters.forwards;
    // Window slots need a transaction record to be released against;
    // without one (stateless, or a keyless request) release now so a
    // misconfiguration degrades to rate-less accounting, not deadlock.
    if (hop_gated)
        shared_.hopGate.noteAborted(cfg_.nextHop);
}

sim::Task
Engine::handleTimeout(sim::Process &p, const RetransList::TimedOut &to,
                      std::vector<SendAction> *out)
{
    ++shared_.counters.retransTimeouts;
    // Rebuild the timed-out branch from the stored forwarded request
    // and answer for the silent downstream (§16.8: acting as a UAS).
    co_await p.cpu(scaled(cfg_.costs.parse), ccParse_);
    auto parsed = sip::parseMessage(to.wire);
    if (!parsed.ok)
        co_return;
    if (sim::trace::SpanCtx *span = p.span()) {
        std::string_view cid = parsed.message.callId();
        span->traceId = sim::trace::traceIdFor(cid);
        span->callId.assign(cid);
        span->label = "timeout 408";
    }
    sip::SipMessage rsp =
        sip::buildResponse(parsed.message, sip::status::kRequestTimeout);
    // The top Via is the proxy's own branch; pop it as if the 408 had
    // arrived from downstream (§16.7).
    rsp.removeFirstHeader(sip::HeaderId::Via);
    attachHopFeedback(rsp, p.sim().now());
    co_await p.cpu(scaled(cfg_.costs.serialize), ccBuild_);
    std::string wire = rsp.serialize();

    co_await shared_.txns.lock().acquire(p);
    co_await p.cpu(scaled(cfg_.costs.txnLookup), ccTm_);
    auto rec = shared_.txns.find(to.key);
    if (!rec || rec->state != TxnRecord::State::Proceeding) {
        // Already answered (or stateless): nothing to time out.
        shared_.txns.lock().release();
        co_return;
    }
    co_await p.cpu(scaled(cfg_.costs.txnUpdate), ccTm_);
    rec->state = TxnRecord::State::Completed;
    rec->lastResponse = wire;
    shared_.txns.scheduleExpiry(rec, p.sim().now() + cfg_.txnLinger);
    net::Addr dst = rec->upstreamAddr;
    std::uint64_t dst_conn = rec->upstreamConnId;
    sim::SimTime created = rec->createdAt;
    bool hop_gated = rec->hopGated;
    rec->hopGated = false;
    shared_.txns.lock().release();
    if (hop_gated)
        shared_.hopGate.noteCompleted(cfg_.nextHop);

    // A Timer B expiry is the strongest overload signal there is: the
    // transaction took the full deadline.
    shared_.overload.recordServed(p.sim().now(),
                                  p.sim().now() - created);

    ++shared_.counters.timerB408s;
    ++shared_.counters.localReplies;
    out->push_back({std::move(wire), dst, dst_conn});
}

sim::Task
Engine::handleResponse(sim::Process &p, sip::SipMessage msg,
                       MsgSource src, std::vector<SendAction> *out)
{
    // Feedback rides the response stream: consume the next hop's
    // advertisement and strip it — each hop advertises its *own*
    // state upstream, never relays a downstream's.
    if (cfg_.nextHop.valid() && src.addr == cfg_.nextHop
        && shared_.hopGate.enabled()) {
        if (auto fb_text = msg.header(sip::HeaderId::Overload)) {
            HopFeedback fb;
            if (parseHopFeedback(*fb_text, &fb))
                shared_.hopGate.applyFeedback(src.addr, fb,
                                              p.sim().now());
            msg.removeFirstHeader(sip::HeaderId::Overload);
        }
    }
    // The top Via must be ours; pop it (§16.7).
    const auto &top = msg.topVia();
    if (!top || top->host != viaHost_) {
        ++shared_.counters.parseErrors;
        co_return;
    }
    auto key = sip::transactionKey(msg); // keyed by our branch
    msg.removeFirstHeader(sip::HeaderId::Via);

    // A chained stateful proxy absorbs the next hop's 100 Trying: it
    // already took transaction responsibility with its own TRYING, and
    // 100s are hop-by-hop (their job here was carrying the feedback).
    if (cfg_.stateful && cfg_.nextHop.valid()
        && msg.statusCode() == sip::status::kTrying)
        co_return;

    if (cfg_.stateful && key) {
        co_await shared_.txns.lock().acquire(p);
        co_await p.cpu(scaled(cfg_.costs.txnLookup), ccTm_);
        auto rec = shared_.txns.find(*key);
        if (rec) {
            co_await p.cpu(scaled(cfg_.costs.txnUpdate), ccTm_);
            const net::Addr dst = rec->upstreamAddr;
            const std::uint64_t dst_conn = rec->upstreamConnId;
            sim::SimTime created = rec->createdAt;
            bool just_completed = false;
            bool hop_gated = false;
            if (msg.isFinal()
                && rec->state == TxnRecord::State::Proceeding) {
                rec->state = TxnRecord::State::Completed;
                just_completed = true;
                hop_gated = rec->hopGated;
                rec->hopGated = false;
                shared_.txns.scheduleExpiry(
                    rec, p.sim().now() + cfg_.txnLinger);
            }
            shared_.txns.lock().release();
            if (hop_gated)
                shared_.hopGate.noteCompleted(cfg_.nextHop);
            if (just_completed && unreliable()) {
                co_await shared_.retrans.lock().acquire(p);
                co_await p.cpu(cfg_.costs.timerCancel, ccTimer_);
                shared_.retrans.cancel(*key);
                shared_.retrans.lock().release();
            }
            // Store the forwarded response for retransmission replay.
            attachHopFeedback(msg, p.sim().now());
            co_await p.cpu(scaled(cfg_.costs.serialize), ccBuild_);
            std::string wire = msg.serialize();
            co_await shared_.txns.lock().acquire(p);
            rec->lastResponse = wire;
            shared_.txns.lock().release();
            out->push_back({std::move(wire), dst, dst_conn});
            ++shared_.counters.forwards;
            if (just_completed)
                shared_.overload.recordServed(
                    p.sim().now(), p.sim().now() - created);
            co_return;
        }
        shared_.txns.lock().release();
    }

    // Stateless (or stray) response: route by the next Via.
    auto dst = sip::addrFromVia(msg.topVia());
    if (!dst) {
        ++shared_.counters.routeFailures;
        co_return;
    }
    std::uint64_t dst_conn = 0;
    co_await resolveConn(p, *dst, &dst_conn);
    attachHopFeedback(msg, p.sim().now());
    co_await p.cpu(scaled(cfg_.costs.serialize), ccBuild_);
    out->push_back({msg.serialize(), *dst, dst_conn});
    ++shared_.counters.forwards;
}

} // namespace siprox::core
