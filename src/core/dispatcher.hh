/**
 * @file
 * The cluster front-end dispatcher: one machine that terminates phone
 * traffic and routes each SIP message to one of N proxy instances —
 * the load-balancing layer OpenSIPS/Kamailio deployments put in front
 * of a proxy farm.
 *
 * The dispatcher is a transparent L7 relay: it peeks at each message
 * (method, Call-ID, request-URI / To AOR, top Via) to pick an
 * instance, then forwards the original wire bytes unmodified — no Via
 * insertion, no transaction state. REGISTERs are always pinned to the
 * AOR's owner instance (under every policy) so a binding lands in the
 * shard that owns it; the policy choice governs INVITE/ACK/BYE
 * placement, which is where consistent hashing pays off by keeping
 * in-dialog requests on the instance that owns the callee's binding.
 *
 * Over UDP the dispatcher relays datagrams; responses from instances
 * are routed back to the phone named by the top Via. Over TCP it
 * terminates phone connections, keeps one trunk connection per
 * instance, and learns phone-address -> connection aliases from the
 * Via/Contact of client traffic so trunk traffic can be routed back to
 * the right phone connection.
 */

#ifndef SIPROX_CORE_DISPATCHER_HH
#define SIPROX_CORE_DISPATCHER_HH

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.hh"
#include "core/location.hh"
#include "core/transport_io.hh"
#include "net/network.hh"
#include "net/tcp.hh"
#include "net/udp.hh"
#include "sim/machine.hh"
#include "sip/message.hh"
#include "sip/parser.hh"
#include "stats/field_table.hh"

namespace siprox::core {

/** How the dispatcher places non-REGISTER requests. */
enum class DispatchPolicy
{
    /** Rotate over instances per request — the naive baseline. Blind
     *  to AOR ownership, so most INVITEs land on an instance that must
     *  miss-forward to the callee's owner. */
    RoundRobin,
    /** Consistent hash on Call-ID: all requests of one dialog stick to
     *  one instance (transaction affinity), but the instance is
     *  uncorrelated with the callee's shard. */
    HashCallId,
    /** Consistent hash on the callee AOR (request-URI user): requests
     *  land on the instance whose shard owns the callee's binding, so
     *  lookups are local. */
    HashAor,
};

const char *dispatchPolicyName(DispatchPolicy p);

/** nullptr if @p p can dispatch over @p t, else a static reason. */
const char *dispatchSupportError(DispatchPolicy p, Transport t);

/** Dispatcher configuration (built by the workload Topology). */
struct DispatcherConfig
{
    Transport transport = Transport::Udp;
    std::uint16_t port = 5060;
    DispatchPolicy policy = DispatchPolicy::HashAor;
    /** Virtual nodes per instance; must match the instances' location
     *  config so dispatch and shard ownership agree. */
    int vnodes = 64;
    /** SIP addresses of the proxy instances, index-aligned. */
    std::vector<net::Addr> instances;
    CostModel costs;
};

/** Dispatcher counters (monotonic; read by the runner and benches).
 *  Every scalar field needs an entry in kDispatcherFields below. */
struct DispatcherStats
{
    std::uint64_t messagesIn = 0;
    std::uint64_t requestsRouted = 0;
    std::uint64_t responsesRouted = 0;
    /** REGISTERs pinned to their AOR owner (subset of requestsRouted). */
    std::uint64_t registersRouted = 0;
    std::uint64_t peekFailures = 0;
    /** Messages with no routable instance/phone (dropped). */
    std::uint64_t dropsNoRoute = 0;
    std::uint64_t clientConnsAccepted = 0;
    /** Requests routed to each instance (balance accounting). */
    std::vector<std::uint64_t> toInstance;
};

/**
 * Every scalar DispatcherStats field, in digest order (all of them sit
 * in the digest's cluster block as disp<Name>). Digests, metrics and
 * telemetry (disp.<name>) are generated from this table; toInstance
 * is reported per instance.
 */
inline constexpr stats::Field<DispatcherStats> kDispatcherFields[] = {
    {"messagesIn", &DispatcherStats::messagesIn},
    {"requestsRouted", &DispatcherStats::requestsRouted},
    {"responsesRouted", &DispatcherStats::responsesRouted},
    {"registersRouted", &DispatcherStats::registersRouted},
    {"peekFailures", &DispatcherStats::peekFailures},
    {"dropsNoRoute", &DispatcherStats::dropsNoRoute},
    {"clientConnsAccepted", &DispatcherStats::clientConnsAccepted},
};
static_assert(sizeof(DispatcherStats)
                  == std::size(kDispatcherFields) * sizeof(std::uint64_t)
                      + sizeof(DispatcherStats::toInstance),
              "every DispatcherStats field needs a kDispatcherFields "
              "entry");

/**
 * The front-end machine. Construct with its own machine and host, then
 * start() after every instance proxy has started (TCP trunks dial the
 * instances' listeners at t=0).
 */
class Dispatcher
{
  public:
    Dispatcher(sim::Machine &machine, net::Host &host,
               DispatcherConfig cfg);
    ~Dispatcher();

    Dispatcher(const Dispatcher &) = delete;
    Dispatcher &operator=(const Dispatcher &) = delete;

    void start();
    void requestStop();

    /** The address phones talk to. */
    net::Addr addr() const { return host_.addr(cfg_.port); }

    const DispatcherConfig &config() const { return cfg_; }
    const DispatcherStats &stats() const { return stats_; }
    sim::Machine &machine() const { return machine_; }

  private:
    /** Policy decision for one peeked request; -1 when unroutable. */
    int pickInstance(const sip::SipMessage &msg);

    /** pickInstance(), counted: a drop when unroutable, else a routed
     *  request (and REGISTER) toward the returned instance. */
    int routeRequest(const sip::SipMessage &msg);

    /** Charge the peek and parse one message, then charge the routing
     *  decision; junk (!out->ok) is counted and not charged further. */
    sim::Task peek(sim::Process &p, const std::string &wire,
                   sip::ParseResult *out);

    // --- UDP ------------------------------------------------------------
    sim::Task udpWorkerMain(sim::Process &p);
    sim::Task routeDatagram(sim::Process &p, net::Datagram dgram);

    // --- TCP ------------------------------------------------------------
    sim::Task acceptMain(sim::Process &p);
    sim::Task trunkMain(sim::Process &p, int instance);
    sim::Task clientConnMain(sim::Process &p,
                             std::shared_ptr<FramedConn> conn);
    /** Route one message an instance sent down its trunk. */
    sim::Task routeFromTrunk(sim::Process &p, std::string wire);
    /** Route one message a phone sent on client connection @p conn. */
    sim::Task routeFromClient(sim::Process &p,
                              std::shared_ptr<FramedConn> conn,
                              std::string wire);
    sim::Task sendToInstance(sim::Process &p, int instance,
                             std::string wire);
    sim::Task sendToClientAddr(sim::Process &p, net::Addr phone,
                               std::string wire);

    sim::Machine &machine_;
    net::Host &host_;
    DispatcherConfig cfg_;
    DispatcherStats stats_;
    HashRing ring_;
    bool stop_ = false;
    std::uint64_t rr_ = 0;

    net::UdpSocket *sock_ = nullptr; // UDP mode

    net::TcpListener *listener_ = nullptr; // TCP mode
    /** One trunk connection per instance (shared: every client-conn
     *  reader forwards over them). */
    std::vector<std::shared_ptr<FramedConn>> trunks_;
    /** Instance SIP address -> instance index (Via-based response
     *  routing from client connections). */
    std::unordered_map<net::Addr, int, net::AddrHash> instanceByAddr_;
    /** Phone address (from Via sent-by / REGISTER Contact) -> the
     *  client connection it is reachable on. */
    std::unordered_map<net::Addr, std::shared_ptr<FramedConn>,
                       net::AddrHash>
        clientByAddr_;

    sim::CostCenterId ccPeek_;
    sim::CostCenterId ccRoute_;
};

} // namespace siprox::core

#endif // SIPROX_CORE_DISPATCHER_HH
