#include "core/dispatcher.hh"

#include "sip/parser.hh"
#include "sip/uri.hh"

namespace siprox::core {

namespace {

/** Receive loops over the shared UDP socket (TCP spawns one reader
 *  per connection instead, like the proxies it fronts). */
constexpr int kDispatcherWorkers = 8;

} // namespace

const char *
dispatchPolicyName(DispatchPolicy p)
{
    switch (p) {
      case DispatchPolicy::RoundRobin:
        return "rr";
      case DispatchPolicy::HashCallId:
        return "hash-callid";
      case DispatchPolicy::HashAor:
        return "hash-aor";
    }
    return "?";
}

const char *
dispatchSupportError(DispatchPolicy p, Transport t)
{
    (void)p; // every policy works over every dispatchable transport
    switch (t) {
      case Transport::Udp:
      case Transport::Tcp:
        return nullptr;
      case Transport::Tls:
        return "the dispatcher does not terminate TLS: fronting a "
               "cluster with TLS means re-encrypting per trunk, which "
               "this model does not simulate — use udp or tcp";
      case Transport::Sctp:
        return "SCTP association state cannot be relayed through the "
               "dispatcher's datagram fast path — use udp or tcp";
      case Transport::Sst:
        return "SST channels are end-to-end; a front-end relay would "
               "break their stream multiplexing — use udp or tcp";
    }
    return "unknown transport";
}

Dispatcher::Dispatcher(sim::Machine &machine, net::Host &host,
                       DispatcherConfig cfg)
    : machine_(machine), host_(host), cfg_(std::move(cfg)),
      ccPeek_(sim::CostCenters::id("disp:peek")),
      ccRoute_(sim::CostCenters::id("disp:route"))
{
    stats_.toInstance.assign(cfg_.instances.size(), 0);
    ring_.build(static_cast<int>(cfg_.instances.size()), cfg_.vnodes);
    for (std::size_t i = 0; i < cfg_.instances.size(); ++i)
        instanceByAddr_[cfg_.instances[i]] = static_cast<int>(i);
}

Dispatcher::~Dispatcher() = default;

void
Dispatcher::start()
{
    if (cfg_.instances.empty())
        return;
    if (isStreamTransport(cfg_.transport)) {
        listener_ = &host_.tcpListen(cfg_.port);
        trunks_.resize(cfg_.instances.size());
        for (std::size_t i = 0; i < cfg_.instances.size(); ++i) {
            machine_.spawn("trunk" + std::to_string(i), 0,
                           [this, i](sim::Process &p) {
                               return trunkMain(p,
                                                static_cast<int>(i));
                           });
        }
        machine_.spawn("daccept", 0, [this](sim::Process &p) {
            return acceptMain(p);
        });
    } else {
        sock_ = &host_.udpBind(cfg_.port);
        for (int i = 0; i < kDispatcherWorkers; ++i) {
            machine_.spawn("dworker" + std::to_string(i), 0,
                           [this](sim::Process &p) {
                               return udpWorkerMain(p);
                           });
        }
    }
}

void
Dispatcher::requestStop()
{
    stop_ = true;
}

int
Dispatcher::pickInstance(const sip::SipMessage &msg)
{
    const auto n = cfg_.instances.size();
    if (n == 0)
        return -1;
    // REGISTERs are pinned to the AOR's owner under every policy, as
    // real dispatchers do: the binding must land in the shard that
    // owns it, or every later lookup would miss.
    if (msg.method() == sip::Method::Register) {
        auto to_uri = sip::uriFromNameAddr(msg.to());
        if (!to_uri)
            return -1;
        return ring_.owner(to_uri->user);
    }
    switch (cfg_.policy) {
      case DispatchPolicy::RoundRobin:
        return static_cast<int>(rr_++ % n);
      case DispatchPolicy::HashCallId:
        return ring_.owner(msg.callId());
      case DispatchPolicy::HashAor:
        return ring_.owner(msg.requestUri().user);
    }
    return -1;
}

int
Dispatcher::routeRequest(const sip::SipMessage &msg)
{
    int i = pickInstance(msg);
    if (i < 0) {
        ++stats_.dropsNoRoute;
        return -1;
    }
    if (msg.method() == sip::Method::Register)
        ++stats_.registersRouted;
    ++stats_.requestsRouted;
    ++stats_.toInstance[static_cast<std::size_t>(i)];
    return i;
}

sim::Task
Dispatcher::peek(sim::Process &p, const std::string &wire,
                 sip::ParseResult *out)
{
    ++stats_.messagesIn;
    co_await p.cpu(cfg_.costs.dispatchPeek, ccPeek_);
    *out = sip::parseMessage(wire);
    if (!out->ok) {
        ++stats_.peekFailures;
        co_return;
    }
    co_await p.cpu(cfg_.costs.dispatchRoute, ccRoute_);
}

// --- UDP ----------------------------------------------------------------

sim::Task
Dispatcher::udpWorkerMain(sim::Process &p)
{
    while (!stop_) {
        net::Datagram dgram;
        co_await sock_->recvFrom(p, dgram);
        if (stop_)
            break;
        co_await routeDatagram(p, std::move(dgram));
    }
}

sim::Task
Dispatcher::routeDatagram(sim::Process &p, net::Datagram dgram)
{
    sip::ParseResult pr;
    co_await peek(p, dgram.payload, &pr);
    if (!pr.ok)
        co_return;
    if (pr.message.isRequest()) {
        int i = routeRequest(pr.message);
        if (i < 0)
            co_return;
        co_await sock_->sendTo(p,
                               cfg_.instances[static_cast<std::size_t>(
                                   i)],
                               std::move(dgram.payload));
    } else {
        // Response from an instance: the top Via names the phone.
        auto phone = sip::addrFromVia(pr.message.topVia());
        if (!phone) {
            ++stats_.dropsNoRoute;
            co_return;
        }
        ++stats_.responsesRouted;
        co_await sock_->sendTo(p, *phone, std::move(dgram.payload));
    }
}

// --- TCP ----------------------------------------------------------------

sim::Task
Dispatcher::sendToInstance(sim::Process &p, int instance,
                           std::string wire)
{
    auto idx = static_cast<std::size_t>(instance);
    // The trunk dials at t=0; the first client frames can beat the
    // handshake by a hair, so wait instead of dropping.
    while (!stop_
           && (idx >= trunks_.size() || !trunks_[idx]
               || !trunks_[idx]->conn.valid()))
        co_await p.sleepFor(sim::msecs(1));
    if (stop_)
        co_return;
    co_await trunks_[idx]->conn.send(p, std::move(wire));
}

sim::Task
Dispatcher::sendToClientAddr(sim::Process &p, net::Addr phone,
                             std::string wire)
{
    auto it = clientByAddr_.find(phone);
    if (it == clientByAddr_.end() || !it->second->conn.valid()) {
        ++stats_.dropsNoRoute;
        co_return;
    }
    co_await it->second->conn.send(p, std::move(wire));
}

sim::Task
Dispatcher::trunkMain(sim::Process &p, int instance)
{
    auto idx = static_cast<std::size_t>(instance);
    auto trunk = std::make_shared<FramedConn>();
    co_await host_.tcpConnect(p, cfg_.instances[idx], trunk->conn);
    trunks_[idx] = trunk;
    // The lambdas merely call a named coroutine (sim/task.hh rule).
    FramedConn *fc = trunk.get();
    StreamState state = StreamState::Open;
    while (!stop_ && state == StreamState::Open) {
        co_await readFrames(
            p, [fc] { return fc; },
            [this](sim::Process &sp, std::string wire) {
                return routeFromTrunk(sp, std::move(wire));
            },
            &state);
    }
}

sim::Task
Dispatcher::routeFromTrunk(sim::Process &p, std::string wire)
{
    sip::ParseResult pr;
    co_await peek(p, wire, &pr);
    if (!pr.ok)
        co_return;
    std::optional<net::Addr> phone;
    if (pr.message.isRequest()) {
        // Owner instance forwarding toward the callee: the request-URI
        // is the registered contact.
        phone = sip::addrFromUri(pr.message.requestUri());
    } else {
        phone = sip::addrFromVia(pr.message.topVia());
    }
    if (!phone) {
        ++stats_.dropsNoRoute;
        co_return;
    }
    if (pr.message.isRequest())
        ++stats_.requestsRouted;
    else
        ++stats_.responsesRouted;
    co_await sendToClientAddr(p, *phone, std::move(wire));
}

sim::Task
Dispatcher::acceptMain(sim::Process &p)
{
    while (!stop_) {
        auto conn = std::make_shared<FramedConn>();
        co_await listener_->accept(p, conn->conn);
        if (stop_)
            break;
        if (!conn->conn.valid())
            continue;
        ++stats_.clientConnsAccepted;
        machine_.spawn("dconn" + std::to_string(conn->conn.id()), 0,
                       [this, conn](sim::Process &sp) {
                           return clientConnMain(sp, conn);
                       });
    }
}

sim::Task
Dispatcher::clientConnMain(sim::Process &p,
                           std::shared_ptr<FramedConn> conn)
{
    // The lambdas merely call a named coroutine (sim/task.hh rule) and
    // capture only pointers (readFrames' by-value rule).
    FramedConn *fc = conn.get();
    const std::shared_ptr<FramedConn> *shared = &conn;
    StreamState state = StreamState::Open;
    while (!stop_ && state == StreamState::Open) {
        co_await readFrames(
            p, [fc] { return fc; },
            [this, shared](sim::Process &sp, std::string wire) {
                return routeFromClient(sp, *shared, std::move(wire));
            },
            &state);
    }
}

sim::Task
Dispatcher::routeFromClient(sim::Process &p,
                            std::shared_ptr<FramedConn> conn,
                            std::string wire)
{
    sip::ParseResult pr;
    co_await peek(p, wire, &pr);
    if (!pr.ok)
        co_return;
    if (pr.message.isRequest()) {
        // Learn how to reach this phone for trunk traffic: the Via
        // sent-by (responses) and, on REGISTER, the Contact (requests
        // forwarded toward the callee).
        if (auto a = sip::addrFromVia(pr.message.topVia()))
            clientByAddr_[*a] = conn;
        if (pr.message.method() == sip::Method::Register) {
            if (auto c = pr.message.contactUri()) {
                if (auto a = sip::addrFromUri(*c))
                    clientByAddr_[*a] = conn;
            }
        }
        int i = routeRequest(pr.message);
        if (i < 0)
            co_return;
        co_await sendToInstance(p, i, std::move(wire));
    } else {
        // Response from a phone: the top Via names the instance whose
        // trunk it rides back on.
        auto a = sip::addrFromVia(pr.message.topVia());
        auto it = a ? instanceByAddr_.find(*a) : instanceByAddr_.end();
        if (!a || it == instanceByAddr_.end()) {
            ++stats_.dropsNoRoute;
            co_return;
        }
        ++stats_.responsesRouted;
        co_await sendToInstance(p, it->second, std::move(wire));
    }
}

} // namespace siprox::core
