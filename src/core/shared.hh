/**
 * @file
 * The proxy's shared memory segment: everything the worker processes,
 * supervisor, and timer process share, plus aggregate counters.
 */

#ifndef SIPROX_CORE_SHARED_HH
#define SIPROX_CORE_SHARED_HH

#include <cstdint>
#include <iterator>

#include "core/conn_table.hh"
#include "core/hopctl.hh"
#include "core/location.hh"
#include "core/overload.hh"
#include "core/registrar.hh"
#include "core/txn_table.hh"
#include "stats/field_table.hh"

namespace siprox::core {

/** Aggregate proxy counters (monotonic; read by tests and benches).
 *  Every field needs an entry in kProxyCounterFields below. */
struct ProxyCounters
{
    std::uint64_t messagesIn = 0;
    std::uint64_t requestsIn = 0;
    std::uint64_t responsesIn = 0;
    std::uint64_t forwards = 0;
    std::uint64_t localReplies = 0; ///< TRYING, 200-to-REGISTER, errors
    std::uint64_t parseErrors = 0;
    std::uint64_t routeFailures = 0;
    std::uint64_t retransAbsorbed = 0; ///< request retransmits answered
    std::uint64_t retransSent = 0;     ///< timer-driven retransmissions
    std::uint64_t retransTimeouts = 0;
    std::uint64_t timerB408s = 0; ///< 408s generated on Timer B expiry
    std::uint64_t registrations = 0;
    std::uint64_t authChallenges = 0;
    std::uint64_t authAccepted = 0;
    std::uint64_t redirects = 0;
    // --- TCP architecture ---------------------------------------------
    std::uint64_t connsAccepted = 0;
    std::uint64_t connsDestroyed = 0;
    std::uint64_t fdRequests = 0;
    std::uint64_t fdCacheHits = 0;
    std::uint64_t fdCacheInvalidations = 0;
    std::uint64_t outboundConnects = 0;
    std::uint64_t sendsToDeadConns = 0;
    std::uint64_t idleScans = 0;
    std::uint64_t idleScanVisited = 0;
    std::uint64_t connsReturnedByWorkers = 0;
    /** Event arch: connections migrated to an idle loop (work steal). */
    std::uint64_t connsStolen = 0;
    // --- overload control ---------------------------------------------
    std::uint64_t overloadRejected = 0;  ///< 503s from ThresholdReject
    std::uint64_t overloadThrottled = 0; ///< 503s from RateThrottle
    std::uint64_t overloadPanicDrops = 0; ///< pre-parse silent drops
    std::uint64_t overloadShedEnters = 0; ///< hysteresis transitions in
    std::uint64_t overloadShedExits = 0;  ///< hysteresis transitions out
    std::uint64_t tcpReadPauses = 0;  ///< read-pause slices started
    std::uint64_t tcpReadResumes = 0; ///< read-pause slices expired
    std::uint64_t tcpAcceptPauses = 0; ///< accept-drain pauses started
    // --- hop-by-hop distributed control --------------------------------
    std::uint64_t hopFeedbackSent = 0; ///< responses carrying Overload:
    std::uint64_t hopFeedbackApplied = 0; ///< advertisements consumed
    std::uint64_t hopThrottleHolds = 0; ///< INVITEs parked for a grant
    std::uint64_t hopThrottleRejects = 0; ///< 503s from the hop gate
    std::uint64_t hopThrottleDrops = 0; ///< pre-parse drops (on/off)
    std::uint64_t hopGrantExpired = 0; ///< stale grants failed open
    // --- sharded location service (clusters only) -----------------------
    std::uint64_t locLocalHits = 0;    ///< lookups served by own shard
    std::uint64_t locReplicaHits = 0;  ///< stale reads from replicas
    std::uint64_t locMissForwards = 0; ///< requests forwarded to owner
    std::uint64_t locRegisterForwards = 0; ///< REGISTERs at a non-owner
    std::uint64_t locReplPushes = 0;   ///< binding writes replicated out
    std::uint64_t locReplInstalls = 0; ///< replica bindings installed

    /** Field-wise accumulate (chain runs sum counters across hops). */
    void add(const ProxyCounters &o);
};

/**
 * Digest groups of a ProxyCounters field: the blocks of
 * RunResult::digest() it appears in. Golden digests fix each block's
 * layout, so the bits (and the table order) are part of the contract.
 */
enum ProxyDigest : unsigned
{
    kDigestRun = 1u << 0,     ///< run-wide block, always present
    kDigestHopCtl = 1u << 1,  ///< hop-control block, if any is nonzero
    kDigestLoc = 1u << 2,     ///< location block, cluster runs only
    kDigestPerHop = 1u << 3,  ///< hop<i>.* blocks, chain runs only
    kDigestPerInst = 1u << 4, ///< inst<i>.* blocks, cluster runs only
};

/**
 * Every ProxyCounters field, in digest order. Sums, digests, metrics
 * (proxy.<name>) and telemetry are generated from this table.
 */
inline constexpr stats::Field<ProxyCounters> kProxyCounterFields[] = {
    {"messagesIn", &ProxyCounters::messagesIn,
     kDigestRun | kDigestPerHop | kDigestPerInst},
    {"requestsIn", &ProxyCounters::requestsIn, kDigestRun},
    {"responsesIn", &ProxyCounters::responsesIn, kDigestRun},
    {"forwards", &ProxyCounters::forwards,
     kDigestRun | kDigestPerHop | kDigestPerInst},
    {"localReplies", &ProxyCounters::localReplies,
     kDigestRun | kDigestPerHop | kDigestPerInst},
    {"parseErrors", &ProxyCounters::parseErrors, kDigestRun},
    {"routeFailures", &ProxyCounters::routeFailures, kDigestRun},
    {"retransAbsorbed", &ProxyCounters::retransAbsorbed,
     kDigestRun | kDigestPerHop},
    {"retransSent", &ProxyCounters::retransSent, kDigestRun},
    {"retransTimeouts", &ProxyCounters::retransTimeouts, kDigestRun},
    {"timerB408s", &ProxyCounters::timerB408s, kDigestRun | kDigestPerHop},
    {"registrations", &ProxyCounters::registrations,
     kDigestRun | kDigestPerInst},
    {"authChallenges", &ProxyCounters::authChallenges, 0},
    {"authAccepted", &ProxyCounters::authAccepted, 0},
    {"redirects", &ProxyCounters::redirects, 0},
    {"connsAccepted", &ProxyCounters::connsAccepted, kDigestRun},
    {"connsDestroyed", &ProxyCounters::connsDestroyed, kDigestRun},
    {"fdRequests", &ProxyCounters::fdRequests, 0},
    {"fdCacheHits", &ProxyCounters::fdCacheHits, 0},
    {"fdCacheInvalidations", &ProxyCounters::fdCacheInvalidations, 0},
    {"outboundConnects", &ProxyCounters::outboundConnects, kDigestRun},
    {"sendsToDeadConns", &ProxyCounters::sendsToDeadConns, 0},
    {"idleScans", &ProxyCounters::idleScans, 0},
    {"idleScanVisited", &ProxyCounters::idleScanVisited, 0},
    {"connsReturnedByWorkers", &ProxyCounters::connsReturnedByWorkers, 0},
    {"connsStolen", &ProxyCounters::connsStolen, 0},
    {"overloadRejected", &ProxyCounters::overloadRejected,
     kDigestRun | kDigestPerHop},
    {"overloadThrottled", &ProxyCounters::overloadThrottled,
     kDigestRun | kDigestPerHop},
    {"overloadPanicDrops", &ProxyCounters::overloadPanicDrops,
     kDigestRun | kDigestPerHop},
    {"overloadShedEnters", &ProxyCounters::overloadShedEnters, kDigestRun},
    {"overloadShedExits", &ProxyCounters::overloadShedExits, kDigestRun},
    {"tcpReadPauses", &ProxyCounters::tcpReadPauses, kDigestRun},
    {"tcpReadResumes", &ProxyCounters::tcpReadResumes, kDigestRun},
    {"tcpAcceptPauses", &ProxyCounters::tcpAcceptPauses, kDigestRun},
    {"hopFeedbackSent", &ProxyCounters::hopFeedbackSent,
     kDigestHopCtl | kDigestPerHop},
    {"hopFeedbackApplied", &ProxyCounters::hopFeedbackApplied,
     kDigestHopCtl | kDigestPerHop},
    {"hopThrottleHolds", &ProxyCounters::hopThrottleHolds,
     kDigestHopCtl | kDigestPerHop},
    {"hopThrottleRejects", &ProxyCounters::hopThrottleRejects,
     kDigestHopCtl | kDigestPerHop},
    {"hopThrottleDrops", &ProxyCounters::hopThrottleDrops,
     kDigestHopCtl | kDigestPerHop},
    {"hopGrantExpired", &ProxyCounters::hopGrantExpired,
     kDigestHopCtl | kDigestPerHop},
    {"locLocalHits", &ProxyCounters::locLocalHits,
     kDigestLoc | kDigestPerInst},
    {"locReplicaHits", &ProxyCounters::locReplicaHits,
     kDigestLoc | kDigestPerInst},
    {"locMissForwards", &ProxyCounters::locMissForwards,
     kDigestLoc | kDigestPerInst},
    {"locRegisterForwards", &ProxyCounters::locRegisterForwards, kDigestLoc},
    {"locReplPushes", &ProxyCounters::locReplPushes,
     kDigestLoc | kDigestPerInst},
    {"locReplInstalls", &ProxyCounters::locReplInstalls,
     kDigestLoc | kDigestPerInst},
};
static_assert(sizeof(ProxyCounters)
                  == std::size(kProxyCounterFields)
                      * sizeof(std::uint64_t),
              "every ProxyCounters field needs a kProxyCounterFields "
              "entry");

inline void
ProxyCounters::add(const ProxyCounters &o)
{
    stats::addFields(*this, o, kProxyCounterFields);
}

/** Everything in the proxy's shared memory. */
struct SharedState
{
    Registrar registrar;
    TxnTable txns;
    RetransList retrans;
    ConnTable conns;
    IdlePq supervisorPq;
    ProxyCounters counters;
    OverloadController overload;
    /** Upstream side of hop-by-hop control (per-destination gate). */
    HopThrottleTable hopGate;
    /** Cluster shard membership + replica store (disabled by default). */
    LocationService location;
};

} // namespace siprox::core

#endif // SIPROX_CORE_SHARED_HH
