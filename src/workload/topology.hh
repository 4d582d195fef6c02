/**
 * @file
 * The topology layer: everything between "a Scenario" and "a set of
 * running proxy machines phones can talk to". Owns the server machines,
 * their network hosts, the per-hop proxy instances, and — in cluster
 * mode — the front-end dispatcher machine.
 *
 * Three shapes are supported:
 *   - single proxy     (chain empty, cluster disabled)  — the classic
 *     paper topology, byte-identical to the pre-Topology runner;
 *   - linear chain     (Scenario::chain non-empty) — a 1-wide linear
 *     topology, edge -> ... -> destination;
 *   - dispatched cluster (Scenario::cluster enabled) — N peer proxy
 *     instances behind a core::Dispatcher front end, each owning a
 *     shard of the location database (core/location.hh).
 *
 * The runner builds one Topology, attaches phones to callerEntry() /
 * calleeEntry(), and reads per-instance state back through proxies().
 */

#ifndef SIPROX_WORKLOAD_TOPOLOGY_HH
#define SIPROX_WORKLOAD_TOPOLOGY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dispatcher.hh"
#include "core/proxy.hh"
#include "net/network.hh"
#include "sim/machine.hh"
#include "sim/simulation.hh"

namespace siprox::workload {

struct Scenario;

/**
 * The server side of one scenario: machines, hosts, proxies, and the
 * optional dispatcher, built and started in a fixed order so existing
 * digest goldens stay byte-identical for non-cluster scenarios.
 */
class Topology
{
  public:
    /** Build machines/hosts and start every proxy (and dispatcher).
     *  Callers must have validated the scenario first
     *  (chainSupportError / clusterSupportError). */
    Topology(sim::Simulation &simu, net::Network &network,
             const Scenario &sc);
    ~Topology();

    Topology(const Topology &) = delete;
    Topology &operator=(const Topology &) = delete;

    /** Chain length (1 for single proxy and for every cluster). */
    std::size_t hops() const { return hops_; }

    /** True when this topology runs a dispatched cluster. */
    bool cluster() const { return dispatcher_ != nullptr; }

    /** Proxy instances: chain hops (edge first) or cluster members. */
    std::vector<std::unique_ptr<core::Proxy>> &proxies()
    {
        return proxies_;
    }

    core::Proxy &edge() { return *proxies_.front(); }

    /** One machine/host per proxy instance, aligned with proxies(). */
    std::vector<sim::Machine *> &serverMachines()
    {
        return serverMachines_;
    }
    std::vector<net::Host *> &serverHosts() { return serverHosts_; }

    /** The cluster front end (null for single proxy and chains). */
    core::Dispatcher *dispatcher() { return dispatcher_.get(); }
    sim::Machine *dispatcherMachine() { return dispatcherMachine_; }
    net::Host *dispatcherHost() { return dispatcherHost_; }

    /** Where callers send their SIP traffic: the dispatcher in a
     *  cluster, otherwise the edge proxy. */
    net::Addr callerEntry() const;

    /** Where callees register: the dispatcher in a cluster, otherwise
     *  the chain destination (their home proxy). */
    net::Addr calleeEntry() const;

    /** The host scenario link faults/partitions apply against (what
     *  the phones actually talk to). */
    net::Host &faultHost();

    /** Machines whose profilers/utilization cover the measured phase:
     *  every proxy machine, plus the dispatcher machine last. */
    std::vector<sim::Machine *> profiledMachines() const;

    /** The machine whose CPU profile lands in RunResult::serverProfile
     *  (destination hop; the dispatcher in a cluster is reported via
     *  telemetry, not the profile). */
    sim::Machine &profileMachine() { return *serverMachines_.back(); }

    /**
     * Pre-seed @p population additional AORs ("u0".."u<n-1>") into the
     * location shards before the simulation runs, owner shard only —
     * models a large installed user base whose resident state pressures
     * the per-instance caches without simulating a registration flood.
     * No locks are taken: the simulation has not started.
     */
    void preSeedAors(std::uint64_t population);

    /** Ask every proxy (and the dispatcher) to stop. */
    void requestStop();

  private:
    void buildCluster(sim::Simulation &simu, net::Network &network,
                      const Scenario &sc);

    std::size_t hops_ = 1;
    std::vector<sim::Machine *> serverMachines_;
    std::vector<net::Host *> serverHosts_;
    std::vector<std::unique_ptr<core::Proxy>> proxies_;
    sim::Machine *dispatcherMachine_ = nullptr;
    net::Host *dispatcherHost_ = nullptr;
    std::unique_ptr<core::Dispatcher> dispatcher_;
};

} // namespace siprox::workload

#endif // SIPROX_WORKLOAD_TOPOLOGY_HH
