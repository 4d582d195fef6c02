#include "phone/phone.hh"

#include <algorithm>
#include <cstdlib>

#include "core/transport_io.hh"
#include "net/error.hh"
#include "sim/pollable.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"
#include "sip/timers.hh"

namespace siprox::phone {

namespace {

const sim::CostCenterId kPhoneCc =
    sim::CostCenters::id("phone:process");

} // namespace

// ---------------------------------------------------------------------------
// Link: transport adapter
// ---------------------------------------------------------------------------

class Phone::Link
{
  public:
    Link(net::Host &host, const PhoneConfig &cfg)
        : host_(host), cfg_(cfg)
    {
    }

    sim::Task
    open(sim::Process &p, bool *ok)
    {
        *ok = true;
        if (core::isStreamTransport(cfg_.transport))
            co_await connect(p, ok);
        else
            dgram_ = &core::bindDatagram(host_, cfg_.transport, cfg_.port);
    }

    /** Send to the proxy, or (datagram transports only) directly to
     *  @p dst when it is valid — used after a 302 redirect and for
     *  Via-routed responses. */
    sim::Task
    send(sim::Process &p, std::string wire, bool *ok,
         net::Addr dst = {})
    {
        *ok = true;
        if (sim::trace::enabled()) {
            auto eol = wire.find('\r');
            sim::trace::log(p.sim().now(), cfg_.user + " ->",
                            wire.substr(0, eol));
        }
        if (dgram_) {
            co_await dgram_->sendTo(p, dst.valid() ? dst : cfg_.proxyAddr,
                                    std::move(wire));
        } else if (active_) {
            co_await active_->conn.send(p, std::move(wire));
        } else {
            *ok = false;
        }
    }

    /** Receive one SIP message; empty string on timeout. */
    sim::Task
    recv(sim::Process &p, std::string *raw, sim::SimTime timeout)
    {
        raw->clear();
        sim::SimTime deadline = timeout == sim::kTimeNever
            ? sim::kTimeNever
            : p.sim().now() + timeout;
        while (ready_.empty()) {
            items_.clear();
            if (dgram_)
                items_.push_back(dgram_);
            if (active_)
                items_.push_back(&active_->conn.readable());
            for (auto &z : zombies_)
                items_.push_back(&z->conn.readable());
            sim::SimTime budget = deadline == sim::kTimeNever
                ? sim::kTimeNever
                : deadline - p.sim().now();
            if (deadline != sim::kTimeNever && budget <= 0)
                co_return; // timeout
            if (items_.empty()) {
                // No open flow: wait out the budget.
                if (deadline == sim::kTimeNever)
                    co_return;
                co_await p.sleepFor(budget);
                co_return;
            }
            co_await sim::poll(p, items_, budget, polled_);
            if (polled_.empty())
                co_return; // timeout
            co_await harvest(p);
        }
        *raw = std::move(ready_.front());
        ready_.pop_front();
        if (sim::trace::enabled()) {
            auto eol = raw->find('\r');
            sim::trace::log(p.sim().now(), cfg_.user + " <-",
                            std::string_view(*raw).substr(0, eol));
        }
    }

    /** False once a stream phone has lost every connection (the
     *  proxy closed it idle, or a reset tore it down). */
    bool
    hasFlow() const
    {
        return dgram_ || active_ || !zombies_.empty();
    }

    /** TCP: abandon the current connection (left open; the server's
     *  idle machinery must deal with it) and open a fresh one. */
    sim::Task
    cycle(sim::Process &p, bool *ok)
    {
        *ok = true;
        if (!core::isStreamTransport(cfg_.transport))
            co_return;
        auto old = std::move(active_);
        active_.reset();
        if (old)
            zombies_.push_back(std::move(old));
        co_await connect(p, ok);
        if (!*ok && !zombies_.empty()) {
            // Could not reconnect (e.g. port exhaustion): fall back to
            // the most recent abandoned connection.
            active_ = std::move(zombies_.back());
            zombies_.pop_back();
        }
    }

  private:
    sim::Task
    connect(sim::Process &p, bool *ok)
    {
        auto flow = std::make_unique<core::FramedConn>();
        try {
            co_await core::connectStream(p, host_, cfg_.transport,
                                         cfg_.proxyAddr, flow->conn);
        } catch (const net::NetError &) {
            *ok = false;
            co_return;
        }
        active_ = std::move(flow);
        *ok = true;
    }

    /** Drain every readable flow into the ready-message queue. */
    sim::Task
    harvest(sim::Process &p)
    {
        if (dgram_) {
            net::Datagram d;
            while (dgram_->pollReady()) {
                co_await dgram_->recvFrom(p, d);
                ready_.push_back(std::move(d.payload));
            }
            co_return;
        }
        if (active_ && active_->conn.readable().pollReady()) {
            bool alive = true;
            co_await readFlow(p, *active_, &alive);
            if (!alive)
                active_.reset();
        }
        for (std::size_t i = 0; i < zombies_.size();) {
            if (!zombies_[i]->conn.readable().pollReady()) {
                ++i;
                continue;
            }
            bool alive = true;
            co_await readFlow(p, *zombies_[i], &alive);
            if (!alive)
                zombies_.erase(zombies_.begin()
                               + static_cast<long>(i));
            else
                ++i;
        }
    }

    /** Queue every message one read of @p flow frames; *alive turns
     *  false on EOF, reset, or an unframeable stream. */
    sim::Task
    readFlow(sim::Process &p, core::FramedConn &flow, bool *alive)
    {
        core::FramedConn *fc = &flow;
        core::StreamState state;
        co_await core::readFrames(
            p, [fc] { return fc; },
            [this](sim::Process &, std::string raw) {
                ready_.push_back(std::move(raw));
            },
            &state);
        *alive = state == core::StreamState::Open;
    }

    net::Host &host_;
    const PhoneConfig &cfg_;
    /** The bound socket (datagram transports only). */
    net::DatagramSocket *dgram_ = nullptr;
    std::unique_ptr<core::FramedConn> active_;
    std::vector<std::unique_ptr<core::FramedConn>> zombies_;
    sim::Fifo<std::string> ready_;
    /** poll()'s flows and its ready set, kept so each poll reuses
     *  their storage. */
    std::vector<sim::Pollable *> items_;
    std::vector<int> polled_;
};

// ---------------------------------------------------------------------------
// Phone
// ---------------------------------------------------------------------------

Phone::Phone(sim::Machine &machine, net::Host &host, PhoneConfig cfg)
    : machine_(machine), host_(host), cfg_(std::move(cfg)),
      link_(std::make_unique<Link>(host_, cfg_)),
      branches_(std::hash<std::string>{}(cfg_.user))
{
}

Phone::~Phone() = default;

sip::SipUri
Phone::contactUri() const
{
    return sip::uriForAddr(cfg_.user, host_.addr(cfg_.port));
}

void
Phone::startCallee(int expected_calls, sim::Latch *registered,
                   sim::Latch *done)
{
    machine_.spawn(cfg_.user, 0,
                   [this, expected_calls, registered,
                    done](sim::Process &p) {
                       return calleeMain(p, expected_calls, registered,
                                         done);
                   });
}

void
Phone::startCaller(int calls, std::string callee_user,
                   sim::Latch *registered, sim::Latch *start,
                   sim::Latch *done, const bool *stop)
{
    machine_.spawn(cfg_.user, 0,
                   [this, calls, callee_user, registered, start, done,
                    stop](sim::Process &p) {
                       return callerMain(p, calls, callee_user,
                                         registered, start, done,
                                         stop);
                   });
}

void
Phone::opDone(sim::SimTime now)
{
    ++stats_.opsCompleted;
    ++opsSinceConnect_;
    stats_.lastOpDone = now;
}

sim::Task
Phone::maybeCycle(sim::Process &p)
{
    if (!core::isStreamTransport(cfg_.transport) || cfg_.opsPerConn <= 0
        || opsSinceConnect_ < cfg_.opsPerConn) {
        co_return;
    }
    co_await reconnect(p);
}

sim::Task
Phone::restoreFlow(sim::Process &p)
{
    co_await reconnect(p);
    if (!link_->hasFlow())
        co_await p.sleepFor(cfg_.responseTimeout);
}

sim::Task
Phone::reconnect(sim::Process &p)
{
    opsSinceConnect_ = 0;
    bool ok = false;
    co_await link_->cycle(p, &ok);
    if (!ok) {
        ++stats_.reconnectFailures;
        co_return;
    }
    ++stats_.reconnects;
    // The new flow must be (re-)registered so the proxy's aliases and
    // location bindings point at it.
    bool reg_ok = false;
    co_await doRegister(p, &reg_ok);
}

sim::Task
Phone::doRegister(sim::Process &p, bool *ok)
{
    *ok = false;
    sip::RequestSpec spec =
        newRequest(sip::Method::Register, "", cfg_.user,
                   cfg_.user + "-reg",
                   cfg_.user + "-reg-" + std::to_string(stats_.registers));
    requestDst_ = net::Addr{}; // registrations always go to the proxy
    std::optional<sip::SipMessage> rsp;
    co_await transact(p, &spec, &rsp);
    if (rsp && rsp->isSuccess()) {
        ++stats_.registers;
        *ok = true;
    }
}

sim::Task
Phone::awaitFinal(sim::Process &p, const std::string &wire,
                  const std::string &call_id, sip::Method method,
                  std::optional<sip::SipMessage> *out)
{
    out->reset();
    const bool udp = cfg_.transport == core::Transport::Udp;
    sim::SimTime deadline = p.sim().now() + cfg_.responseTimeout;
    sim::SimTime interval =
        udp ? sip::timers::kT1 : cfg_.responseTimeout;
    bool got_provisional = false;

    for (;;) {
        sim::SimTime now = p.sim().now();
        if (now >= deadline)
            co_return; // give up: failed call
        sim::SimTime budget = std::min(deadline, now + interval) - now;
        std::string raw;
        co_await link_->recv(p, &raw, budget);
        if (raw.empty()) {
            // Interval expired: retransmit on UDP unless a provisional
            // response told us the proxy has taken over (§2).
            if (udp && !got_provisional
                && p.sim().now() < deadline) {
                ++stats_.retransmissions;
                bool sent = false;
                co_await link_->send(p, wire, &sent, requestDst_);
                interval = std::min<sim::SimTime>(interval * 2,
                                                  sip::timers::kT2);
            }
            continue;
        }
        co_await p.cpu(cfg_.processCost, kPhoneCc);
        switch (classify(std::move(raw), call_id, method, out)) {
          case Reply::Ignore:
            break;
          case Reply::Provisional:
            got_provisional = true;
            break;
          case Reply::Final:
            co_return;
        }
    }
}

namespace {

/** Seconds a 503's Retry-After asks us to wait (RFC 3261 §21.5.4);
 *  defaults to 1 s when the header is missing or unparsable. */
sim::SimTime
retryAfterOf(const sip::SipMessage &rsp)
{
    auto h = rsp.header("Retry-After");
    if (!h)
        return sim::secs(1);
    int s = std::atoi(std::string(*h).c_str());
    return s > 0 ? sim::secs(s) : sim::secs(1);
}

/** Pull the nonce value out of a WWW-Authenticate header. */
std::string
nonceFrom(const sip::SipMessage &rsp)
{
    auto h = rsp.header("WWW-Authenticate");
    if (!h)
        return {};
    auto pos = h->find("nonce=\"");
    if (pos == std::string_view::npos)
        return {};
    auto rest = h->substr(pos + 7);
    auto end = rest.find('"');
    return std::string(rest.substr(0, end));
}

} // namespace

sim::Task
Phone::transact(sim::Process &p, sip::RequestSpec *spec,
                std::optional<sip::SipMessage> *rsp)
{
    for (int attempt = 0; attempt < 2; ++attempt) {
        const std::string wire = signedWire(*spec);
        co_await p.cpu(cfg_.processCost, kPhoneCc);
        bool send_ok = false;
        co_await link_->send(p, wire, &send_ok, requestDst_);
        if (!send_ok) {
            rsp->reset();
            co_return;
        }
        co_await awaitFinal(p, wire, spec->callId, spec->method, rsp);
        if (!*rsp
            || (*rsp)->statusCode() != sip::status::kUnauthorized) {
            co_return;
        }
        // Digest challenge: remember the nonce and retry with
        // credentials and an incremented CSeq (RFC 2617).
        authNonce_ = nonceFrom(**rsp);
        spec->cseq = ++cseq_;
        spec->branch = branches_.next();
    }
    rsp->reset(); // challenged twice: give up
}

sim::Task
Phone::placeCall(sim::Process &p, const std::string &callee_user,
                 int call_index, bool *ok)
{
    *ok = false;
    sip::RequestSpec spec = newRequest(
        sip::Method::Invite, callee_user, callee_user,
        cfg_.user + "-" + std::to_string(call_index),
        cfg_.user + "-call-" + std::to_string(call_index));

    // End-to-end causal span: the Call-ID minted here is the trace id
    // every hop (transport, kernel queue, worker, timer) joins on.
    sim::SpanScope call_span(p);
    if (auto *s = call_span.ctx()) {
        s->traceId = sim::trace::traceIdFor(spec.callId);
        s->callId = spec.callId;
        s->label = "call";
    }

    // --- INVITE transaction ---------------------------------------------
    sim::SimTime t0 = p.sim().now();
    requestDst_ = net::Addr{}; // each call starts at the proxy
    std::optional<sip::SipMessage> rsp;
    co_await transact(p, &spec, &rsp);

    if (rsp && rsp->statusCode() == sip::status::kMovedTemporarily
        && !core::isStreamTransport(cfg_.transport)) {
        // Redirect server (paper §2): re-issue the INVITE straight to
        // the contact; the rest of the call bypasses the server.
        if (!redirect(spec, *rsp))
            co_return;
        co_await transact(p, &spec, &rsp);
    }
    if (!succeeded(rsp))
        co_return;

    // ACK (end-to-end for 2xx: routed via the proxy to the contact,
    // or straight to the callee after a redirect).
    std::string ack = ackWire(spec, *rsp);
    co_await p.cpu(cfg_.processCost, kPhoneCc);
    bool sent = false;
    co_await link_->send(p, std::move(ack), &sent, requestDst_);
    if (cfg_.inviteLatency)
        cfg_.inviteLatency->record(p.sim().now() - t0);
    opDone(p.sim().now());

    // --- BYE transaction ------------------------------------------------
    toBye(spec, *rsp);
    co_await transact(p, &spec, &rsp);
    if (!succeeded(rsp))
        co_return;
    opDone(p.sim().now());
    *ok = true;
}

// ---------------------------------------------------------------------------
// Message building
// ---------------------------------------------------------------------------

sip::RequestSpec
Phone::newRequest(sip::Method method, const std::string &uri_user,
                  const std::string &to_user, std::string from_tag,
                  std::string call_id)
{
    sip::RequestSpec spec;
    spec.method = method;
    spec.requestUri = sip::uriForAddr(uri_user, cfg_.proxyAddr);
    spec.from = contactUri();
    spec.to = sip::uriForAddr(to_user, cfg_.proxyAddr);
    spec.fromTag = std::move(from_tag);
    spec.callId = std::move(call_id);
    spec.cseq = ++cseq_;
    spec.viaTransport = core::transportName(cfg_.transport);
    spec.viaSentBy = contactUri();
    spec.branch = branches_.next();
    spec.contact = contactUri();
    return spec;
}

std::string
Phone::signedWire(const sip::RequestSpec &spec) const
{
    sip::SipMessage msg = sip::buildRequest(spec);
    if (!authNonce_.empty()) {
        msg.setHeader("Authorization",
                      "Digest username=\"" + cfg_.user + "\", nonce=\""
                          + authNonce_ + "\", response=\"0badcafe\"");
    }
    return msg.serialize();
}

bool
Phone::redirect(sip::RequestSpec &spec, const sip::SipMessage &rsp)
{
    auto contact = rsp.contactUri();
    auto direct = contact ? sip::addrFromUri(*contact) : std::nullopt;
    if (!direct)
        return false;
    requestDst_ = *direct;
    spec.requestUri = *contact;
    spec.cseq = ++cseq_;
    spec.branch = branches_.next();
    return true;
}

std::string
Phone::ackWire(const sip::RequestSpec &spec, const sip::SipMessage &final)
{
    sip::SipMessage ack = sip::buildAck(spec, final, branches_.next());
    if (auto contact = final.contactUri())
        ack.setRequestUri(*contact);
    return ack.serialize();
}

void
Phone::toBye(sip::RequestSpec &spec, const sip::SipMessage &final)
{
    spec.method = sip::Method::Bye;
    if (auto contact = final.contactUri())
        spec.requestUri = *contact;
    spec.cseq = ++cseq_;
    spec.branch = branches_.next();
    spec.contact.reset();
}

bool
Phone::succeeded(const std::optional<sip::SipMessage> &rsp)
{
    if (rsp && rsp->statusCode() == sip::status::kServiceUnavailable) {
        // Overload rejection: note the requested backoff; callerMain
        // sleeps it off between calls instead of hammering the proxy.
        ++stats_.rejected503;
        pendingBackoff_ = retryAfterOf(*rsp);
    }
    return rsp && rsp->isSuccess();
}

Phone::Reply
Phone::classify(std::string raw, const std::string &call_id,
                sip::Method method, std::optional<sip::SipMessage> *out)
{
    auto parsed = sip::parseMessage(raw);
    if (!parsed.ok)
        return Reply::Ignore;
    sip::SipMessage &msg = parsed.message;
    if (msg.isRequest()) {
        // Do not drop requests racing a response (e.g. the next
        // INVITE arriving during a post-reconnect REGISTER).
        pendingRequests_.push_back(std::move(raw));
        return Reply::Ignore;
    }
    auto cseq = msg.cseq();
    if (msg.callId() != call_id || !cseq || cseq->method != method)
        return Reply::Ignore;
    if (msg.isProvisional())
        return Reply::Provisional;
    *out = std::move(msg);
    return Reply::Final;
}

bool
Phone::readRequest(std::string raw, const std::string &to_tag,
                   Incoming *in) const
{
    auto parsed = sip::parseOwned(std::move(raw));
    if (!parsed.ok || !parsed.message.isRequest())
        return false;
    const sip::SipMessage &msg = parsed.message;
    in->method = msg.method();
    in->callId.assign(msg.callId());
    in->replyTo = sip::addrFromVia(msg.topVia()).value_or(net::Addr{});
    if (in->method == sip::Method::Invite) {
        in->ringing =
            sip::buildResponse(msg, sip::status::kRinging, to_tag)
                .serialize();
        in->ok = sip::buildResponse(msg, sip::status::kOk, to_tag,
                                    contactUri())
                     .serialize();
    } else if (in->method == sip::Method::Bye) {
        in->ok = sip::buildResponse(msg, sip::status::kOk, to_tag)
                     .serialize();
    }
    return true;
}

sim::Task
Phone::callerMain(sim::Process &p, int calls, std::string callee_user,
                  sim::Latch *registered, sim::Latch *start,
                  sim::Latch *done, const bool *stop)
{
    bool ok = false;
    co_await link_->open(p, &ok);
    if (ok)
        co_await doRegister(p, &ok);
    if (registered)
        registered->arrive();
    if (ok) {
        if (start)
            co_await start->wait(p);
        for (int i = 0; i < calls && !(stop && *stop); ++i) {
            bool call_ok = false;
            co_await placeCall(p, callee_user, i, &call_ok);
            if (call_ok) {
                ++stats_.callsCompleted;
                consecutive503_ = 0;
            } else {
                ++stats_.callsFailed;
            }
            if (pendingBackoff_ > 0) {
                sim::SimTime wait =
                    backoffWait(pendingBackoff_, consecutive503_,
                                cfg_.retryBackoffCap,
                                p.sim().rng().uniform());
                pendingBackoff_ = 0;
                ++consecutive503_;
                ++stats_.backoffs;
                co_await p.sleepFor(wait);
            }
            co_await maybeCycle(p);
        }
    }
    if (done)
        done->arrive();
}

sim::Task
Phone::calleeMain(sim::Process &p, int expected_calls,
                  sim::Latch *registered, sim::Latch *done)
{
    bool ok = false;
    co_await link_->open(p, &ok);
    if (ok)
        co_await doRegister(p, &ok);
    if (registered)
        registered->arrive();
    if (!ok) {
        if (done)
            done->arrive();
        co_return;
    }

    const bool udp = cfg_.transport == core::Transport::Udp;
    const std::string to_tag = cfg_.user + "-tag";
    int completed = 0;
    std::string current_call;  // Call-ID being serviced
    std::string ok200_wire;    // for retransmission until ACK
    net::Addr ok200_dst;       // where the 200 goes (top Via)
    bool awaiting_ack = false;
    sim::SimTime retrans_at = sim::kTimeNever;
    sim::SimTime retrans_interval = sip::timers::kT1;

    while (completed < expected_calls) {
        sim::SimTime timeout = sim::kTimeNever;
        if (awaiting_ack && udp)
            timeout = retrans_at - p.sim().now();
        std::string raw;
        if (!pendingRequests_.empty()) {
            raw = std::move(pendingRequests_.front());
            pendingRequests_.pop_front();
        } else {
            if (timeout == sim::kTimeNever && !link_->hasFlow()) {
                // A wait on no flow would return at once, forever.
                co_await restoreFlow(p);
                continue;
            }
            co_await link_->recv(
                p, &raw,
                timeout == sim::kTimeNever
                    ? sim::kTimeNever
                    : std::max<sim::SimTime>(timeout, 0));
        }
        if (raw.empty()) {
            // Retransmit 200 OK until the ACK arrives (UAS, §2).
            if (awaiting_ack && udp && !ok200_wire.empty()) {
                ++stats_.retransmissions;
                bool sent = false;
                co_await link_->send(p, ok200_wire, &sent, ok200_dst);
                retrans_interval =
                    std::min<sim::SimTime>(retrans_interval * 2,
                                           sip::timers::kT2);
                retrans_at = p.sim().now() + retrans_interval;
            }
            continue;
        }
        co_await p.cpu(cfg_.processCost, kPhoneCc);
        Incoming in;
        if (!readRequest(std::move(raw), to_tag, &in))
            continue; // stray
        switch (in.method) {
          case sip::Method::Invite: {
            bool duplicate = awaiting_ack && in.callId == current_call;
            current_call = in.callId;
            ok200_dst = in.replyTo;
            bool sent = false;
            if (!duplicate) {
                co_await p.cpu(cfg_.processCost, kPhoneCc);
                co_await link_->send(p, std::move(in.ringing), &sent,
                                     ok200_dst);
                if (cfg_.answerDelay > 0)
                    co_await p.sleepFor(cfg_.answerDelay);
                ok200_wire = std::move(in.ok);
            } else {
                ++stats_.retransmissions;
            }
            co_await p.cpu(cfg_.processCost, kPhoneCc);
            co_await link_->send(p, ok200_wire, &sent, ok200_dst);
            awaiting_ack = true;
            retrans_interval = sip::timers::kT1;
            retrans_at = p.sim().now() + retrans_interval;
            break;
          }
          case sip::Method::Ack: {
            if (awaiting_ack && in.callId == current_call) {
                awaiting_ack = false;
                retrans_at = sim::kTimeNever;
                opDone(p.sim().now()); // invite transaction complete
            }
            break;
          }
          case sip::Method::Bye: {
            // A BYE implies the ACK made it (or was lost; either way
            // the call is established and now ending).
            if (awaiting_ack && in.callId == current_call) {
                awaiting_ack = false;
                retrans_at = sim::kTimeNever;
                opDone(p.sim().now());
            }
            bool sent = false;
            co_await p.cpu(cfg_.processCost, kPhoneCc);
            co_await link_->send(p, std::move(in.ok), &sent, in.replyTo);
            if (!current_call.empty() && in.callId == current_call) {
                opDone(p.sim().now()); // bye transaction complete
                ++stats_.callsCompleted;
                ++completed;
                current_call.clear();
                co_await maybeCycle(p);
            } else {
                ++stats_.retransmissions;
            }
            break;
          }
          default:
            break; // stray
        }
    }
    if (done)
        done->arrive();
}

} // namespace siprox::phone
