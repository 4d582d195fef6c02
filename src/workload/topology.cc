#include "workload/topology.hh"

#include <string>

#include "sip/uri.hh"
#include "workload/scenario.hh"

namespace siprox::workload {

Topology::Topology(sim::Simulation &simu, net::Network &network,
                   const Scenario &sc)
{
    if (sc.cluster.enabled()) {
        buildCluster(simu, network, sc);
        return;
    }

    hops_ = sc.chain.empty() ? 1 : sc.chain.size();

    // Machine naming keeps the single-proxy case byte-identical to
    // the pre-chain runner ("server"); chain hops are numbered.
    for (std::size_t i = 0; i < hops_; ++i) {
        auto &m = simu.addMachine(
            hops_ == 1 ? std::string("server")
                       : "server" + std::to_string(i),
            sc.serverCores);
        serverMachines_.push_back(&m);
        serverHosts_.push_back(&network.attach(m));
    }

    // Hosts exist before any proxy starts, so each hop can point at
    // the next one's address; the last hop is the chain destination
    // and keeps an invalid nextHop (routes via its registrar).
    for (std::size_t i = 0; i < hops_; ++i) {
        core::ProxyConfig cfg = sc.proxy;
        if (!sc.chain.empty()) {
            const ChainHop &hop = sc.chain[i];
            cfg.arch = hop.arch;
            if (hop.workers > 0)
                cfg.workers = hop.workers;
            if (hop.overloadPolicy)
                cfg.overload.policy = *hop.overloadPolicy;
            if (i + 1 < hops_)
                cfg.nextHop = serverHosts_[i + 1]->addr(sc.proxy.port);
            // Disjoint per-hop branch salts: a proxy's transaction
            // table keys on both its own and its upstream's branches,
            // so identical generator streams on two hops collide
            // (the second INVITE is eaten as a "retransmission").
            cfg.branchSaltBase = sc.proxy.branchSaltBase
                + (i << 20);
        }
        proxies_.push_back(std::make_unique<core::Proxy>(
            *serverMachines_[i], *serverHosts_[i], cfg));
        proxies_.back()->start();
    }
}

void
Topology::buildCluster(sim::Simulation &simu, net::Network &network,
                       const Scenario &sc)
{
    hops_ = 1; // a cluster is one hop wide from the phones' viewpoint
    const int n = sc.cluster.instances;

    // The dispatcher machine comes first: it is what phones talk to,
    // so fault injection keys off its host.
    dispatcherMachine_ = &simu.addMachine("dispatcher",
                                          sc.cluster.dispatcherCores);
    dispatcherHost_ = &network.attach(*dispatcherMachine_);

    for (int i = 0; i < n; ++i) {
        auto &m = simu.addMachine("proxy" + std::to_string(i),
                                  sc.serverCores);
        serverMachines_.push_back(&m);
        serverHosts_.push_back(&network.attach(m));
    }

    // Shared membership view: every instance (and the dispatcher)
    // derives shard ownership from the same ring parameters.
    core::ClusterMemberConfig member;
    member.instances = n;
    member.vnodes = sc.cluster.vnodes;
    member.staleReads = sc.cluster.staleReads;
    member.replicationLag = sc.cluster.replicationLag;
    for (int i = 0; i < n; ++i) {
        member.peers.push_back(
            serverHosts_[static_cast<std::size_t>(i)]->addr(
                sc.proxy.port));
        member.replPeers.push_back(
            serverHosts_[static_cast<std::size_t>(i)]->addr(
                member.replPort));
    }

    for (int i = 0; i < n; ++i) {
        core::ProxyConfig cfg = sc.proxy;
        cfg.cluster = member;
        cfg.cluster.instance = i;
        // Disjoint per-instance branch salts, as with chain hops:
        // miss-forwarded requests traverse two instances' transaction
        // tables, which key on branch strings.
        cfg.branchSaltBase = sc.proxy.branchSaltBase
            + (static_cast<std::size_t>(i) << 20);
        proxies_.push_back(std::make_unique<core::Proxy>(
            *serverMachines_[static_cast<std::size_t>(i)],
            *serverHosts_[static_cast<std::size_t>(i)], cfg));
        proxies_.back()->start();
    }

    core::DispatcherConfig dcfg;
    dcfg.transport = sc.proxy.transport;
    dcfg.port = sc.proxy.port;
    dcfg.policy = sc.cluster.policy;
    dcfg.vnodes = sc.cluster.vnodes;
    dcfg.instances = member.peers;
    dcfg.costs = sc.proxy.costs;
    dispatcher_ = std::make_unique<core::Dispatcher>(
        *dispatcherMachine_, *dispatcherHost_, std::move(dcfg));
    // Start last: TCP trunks dial the instances' listeners at t=0.
    dispatcher_->start();

    if (sc.cluster.aorPopulation > 0)
        preSeedAors(sc.cluster.aorPopulation);
}

Topology::~Topology() = default;

net::Addr
Topology::callerEntry() const
{
    if (dispatcher_)
        return dispatcher_->addr();
    return proxies_.front()->addr();
}

net::Addr
Topology::calleeEntry() const
{
    if (dispatcher_)
        return dispatcher_->addr();
    return proxies_.back()->addr();
}

net::Host &
Topology::faultHost()
{
    if (dispatcherHost_)
        return *dispatcherHost_;
    return *serverHosts_.front();
}

std::vector<sim::Machine *>
Topology::profiledMachines() const
{
    std::vector<sim::Machine *> out = serverMachines_;
    if (dispatcherMachine_)
        out.push_back(dispatcherMachine_);
    return out;
}

void
Topology::preSeedAors(std::uint64_t population)
{
    if (proxies_.empty())
        return;
    // The simulation has not started: install directly, no locks and
    // no CPU charges. Each AOR lands only in its owner's shard — the
    // steady-state a real cluster converges to.
    const core::LocationService &view =
        proxies_.front()->shared().location;
    std::string user;
    for (std::uint64_t k = 0; k < population; ++k) {
        user = "u" + std::to_string(k);
        int owner = view.owner(user);
        if (owner < 0)
            owner = 0;
        auto idx = static_cast<std::size_t>(owner);
        if (idx >= proxies_.size())
            idx = 0;
        core::Binding b;
        b.contact = sip::uriForAddr(
            user, proxies_[idx]->shared().location.peerAddr(
                      static_cast<int>(idx)));
        proxies_[idx]->shared().registrar.update(user, std::move(b));
    }
}

void
Topology::requestStop()
{
    if (dispatcher_)
        dispatcher_->requestStop();
    for (auto &px : proxies_)
        px->requestStop();
}

} // namespace siprox::workload
