#include "workload/scenario.hh"

#include <algorithm>
#include <climits>
#include <memory>
#include <stdexcept>

#include <functional>

#include "core/proxy.hh"
#include "net/network.hh"
#include "workload/topology.hh"
#include "phone/phone.hh"
#include "sim/mem_stats.hh"
#include "sim/simulation.hh"
#include "sim/sync.hh"
#include "sim/trace.hh"
#include "stats/field_table.hh"
#include "stats/histogram.hh"
#include "stats/timeseries.hh"

namespace siprox::workload {

namespace {

/** Manager bookkeeping shared with the manager process. */
struct Phases
{
    sim::Latch registered;
    sim::Latch start{1};
    sim::Latch done;
    sim::SimTime measureStart = 0;
    sim::SimTime measureEnd = 0;
    std::vector<sim::SimTime> serverBusyAtStart;
    std::vector<sim::SimTime> clientBusyAtStart;
    bool finished = false;
    /** Time-based mode: set after the measurement window elapses. */
    bool stopCalling = false;
    sim::SimTime window = 0;

    Phases(int phones, int callers)
        : registered(phones), done(callers)
    {
    }
};

/**
 * The manager program (§4.2): waits for every phone to register,
 * starts the measured phase, and records its end.
 */
sim::Task
managerMain(sim::Process &p, Phases *phases,
            std::vector<sim::Machine *> servers,
            std::vector<sim::Machine *> client_machines)
{
    co_await phases->registered.wait(p);
    phases->measureStart = p.sim().now();
    // Profile and utilization cover only the measured phase.
    for (auto *m : servers) {
        m->profiler().reset();
        phases->serverBusyAtStart.push_back(m->scheduler().busyTime());
    }
    for (auto *m : client_machines)
        phases->clientBusyAtStart.push_back(m->scheduler().busyTime());
    if (sim::trace::recording()) {
        sim::trace::recorder()->instant("measure-start",
                                        phases->measureStart);
    }
    phases->start.arrive();
    if (phases->window > 0) {
        co_await p.sleepFor(phases->window);
        phases->stopCalling = true;
    }
    co_await phases->done.wait(p);
    phases->measureEnd = p.sim().now();
    phases->finished = true;
    if (sim::trace::recording()) {
        sim::trace::recorder()->instant("measure-end",
                                        phases->measureEnd);
    }
}

/**
 * Windowed-telemetry sampler: cuts a window at every multiple of the
 * window width from t=0 (registration included — the warmup phase is
 * part of the story). The final, partial window is flushed
 * synchronously by runScenario at the exact point it reads the run's
 * end-of-run counters, so per-window deltas sum to the RunResult
 * totals.
 */
sim::Task
telemetryMain(sim::Process &p, Phases *phases, sim::SimTime window,
              const std::function<void()> *sample,
              stats::TimeSeries *ts)
{
    sim::SimTime next = window;
    for (;;) {
        sim::SimTime now = p.sim().now();
        if (now < next)
            co_await p.sleepFor(next - now);
        // Once the measured phase is over, everything after this
        // boundary (the settle tail) belongs to the final window that
        // runScenario flushes synchronously — stop ticking so the run
        // loop's coast to its next check produces no empty windows.
        if (phases->finished)
            co_return;
        (*sample)();
        for (const auto &s : ts->series())
            s->beginWindow(p.sim().now());
        next += window;
    }
}

/** Per-hop serve-latency accumulator fed by the overload controller's
 *  served sink: a histogram over the current window (reset at each
 *  boundary) plus the run-cumulative served count. */
struct ServedWindow
{
    stats::LatencyHistogram hist;
    std::uint64_t servedTotal = 0;
};

using Phones = std::vector<std::unique_ptr<phone::Phone>>;

/** Phone-fleet totals, summed once for telemetry and RunResult:
 *  operations and call outcomes count at the callers (each
 *  transaction once), retransmissions and reconnects at every phone. */
struct PhoneTotals
{
    std::uint64_t ops = 0;
    std::uint64_t callsCompleted = 0;
    std::uint64_t callsFailed = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t reconnectFailures = 0;
    std::uint64_t rejected503 = 0;
    std::uint64_t backoffs = 0;
    sim::SimTime lastOpDone = 0;
};

/** Telemetry's phone.<name> counters (the same names as the metrics). */
constexpr stats::Field<PhoneTotals> kPhoneTotalFields[] = {
    {"ops", &PhoneTotals::ops},
    {"callsCompleted", &PhoneTotals::callsCompleted},
    {"callsFailed", &PhoneTotals::callsFailed},
    {"retransmissions", &PhoneTotals::retransmissions},
    {"reconnects", &PhoneTotals::reconnects},
    {"reconnectFailures", &PhoneTotals::reconnectFailures},
    {"rejected503", &PhoneTotals::rejected503},
    {"backoffs", &PhoneTotals::backoffs},
};

PhoneTotals
sumPhones(const Phones &callers, const Phones &callees)
{
    PhoneTotals t;
    for (const auto &ph : callers) {
        const phone::PhoneStats &st = ph->stats();
        t.ops += st.opsCompleted;
        t.callsCompleted += st.callsCompleted;
        t.callsFailed += st.callsFailed;
        t.rejected503 += st.rejected503;
        t.backoffs += st.backoffs;
        t.lastOpDone = std::max(t.lastOpDone, st.lastOpDone);
    }
    for (const Phones *fleet : {&callers, &callees}) {
        for (const auto &ph : *fleet) {
            const phone::PhoneStats &st = ph->stats();
            t.retransmissions += st.retransmissions;
            t.reconnects += st.reconnects;
            t.reconnectFailures += st.reconnectFailures;
        }
    }
    return t;
}

/** Every NetStats counter as net.<name>, batch scalars included
 *  (net.batchRecvCalls, ...). */
template <class Emit>
void
emitNetStats(const net::NetStats &n, Emit &&emit)
{
    stats::emitFields(net::kNetStatsFields, n, "net.", emit);
    for (const auto &b : net::kNetBatchFields) {
        stats::emitFields(net::kBatchIoFields, n.*b.member,
                          "net." + std::string(b.name), emit);
    }
}

/** An emitFields sink that samples each field as a series counter. */
auto
counterSink(stats::Series &s)
{
    return [&s](std::string_view key, std::uint64_t v) {
        s.counter(key, v);
    };
}

/**
 * Machine-level telemetry shared by server and client series: CPU busy
 * time (total and per core), lock contention, socket I/O, run-queue
 * depth, and — when a trace recorder is attached — the per-wait-state
 * span totals the explain report ranks.
 */
void
sampleMachine(stats::Series &s, sim::Machine &m, const net::Host &h)
{
    sim::CpuScheduler &sched = m.scheduler();
    s.counter("cpu.busyNs",
              static_cast<std::uint64_t>(sched.busyTime()));
    for (int c = 0; c < sched.cores(); ++c) {
        s.counter("cpu.core" + std::to_string(c) + ".busyNs",
                  static_cast<std::uint64_t>(sched.coreBusyTime(c)));
    }
    s.counter("lock.contendNs",
              static_cast<std::uint64_t>(m.lockContendTime()));
    s.counter("lock.contentions", m.lockContentions());
    const net::HostIoStats &io = h.io();
    s.counter("io.pktsOut", io.pktsOut);
    s.counter("io.bytesOut", io.bytesOut);
    s.counter("io.pktsIn", io.pktsIn);
    s.counter("io.bytesIn", io.bytesIn);
    s.gauge("cpu.cores", sched.cores());
    s.gauge("sched.queued", sched.queued());
    if (sim::trace::recording()) {
        const auto &totals = sim::trace::recorder()->machineTotals();
        auto it = totals.find(m.name());
        if (it != totals.end()) {
            for (std::size_t w = 0; w < sim::trace::kWaitCount; ++w) {
                s.counter("wait."
                              + std::string(sim::trace::waitName(
                                  static_cast<sim::trace::Wait>(w))),
                          static_cast<std::uint64_t>(
                              it->second.wait[w]));
            }
        }
    }
}

/**
 * Proxy telemetry: every ProxyCounters field as proxy.<name>, the
 * socket-level drops, and the queue, table, overload-control,
 * hop-gate, serve-latency and architecture gauges.
 */
void
sampleProxy(stats::Series &s, core::Proxy &px, ServedWindow &sw)
{
    core::SharedState &sh = px.shared();
    stats::emitFields(core::kProxyCounterFields, sh.counters, "proxy.",
                      counterSink(s));
    s.counter("queue.recvDrops", px.recvQueueDrops());
    s.counter("accept.refused", px.acceptRefused());
    s.counter("served.count", sw.servedTotal);

    const core::ProxyConfig &cfg = px.config();
    const auto txns = static_cast<double>(sh.txns.size());
    const auto recv_depth = static_cast<double>(px.recvQueueDepth());
    s.gauge("queue.request", static_cast<double>(px.requestQueueDepth()));
    s.gauge("queue.recv", recv_depth);
    s.gauge("txn.records", txns / 2.0); // two table keys per record
    if (cfg.overload.txnTableCapacity > 0) {
        s.gauge("occ.txnTable",
                txns / static_cast<double>(cfg.overload.txnTableCapacity));
    }
    if (cfg.overload.recvQueueCapacity > 0) {
        s.gauge("occ.recvQueue",
                recv_depth
                    / static_cast<double>(cfg.overload.recvQueueCapacity));
    }
    const core::OverloadController &oc = sh.overload;
    s.gauge("overload.occupancy", oc.occupancySignal());
    s.gauge("overload.latencyEwmaMs", sim::toMsecs(oc.latencyEwma()));
    s.gauge("overload.rate", oc.currentRate());
    s.gauge("overload.shedding", oc.shedding() ? 1.0 : 0.0);
    s.gauge("hop.grantedRate", oc.hopGrantedRate());
    s.gauge("hop.grantedWindow", static_cast<double>(oc.hopGrantedWindow()));
    s.gauge("hop.on", oc.hopOn() ? 1.0 : 0.0);
    if (cfg.nextHop.valid()) {
        const core::HopThrottleTable &gate = sh.hopGate;
        s.gauge("hopgate.rateToNext", gate.grantedRate(cfg.nextHop));
        s.gauge("hopgate.windowToNext",
                static_cast<double>(gate.grantedWindow(cfg.nextHop)));
        s.gauge("hopgate.pendingToNext",
                static_cast<double>(gate.pendingToward(cfg.nextHop)));
    }
    if (sw.hist.count() > 0) {
        s.gauge("latency.meanMs", sim::toMsecs(sw.hist.mean()));
        s.gauge("latency.p50Ms", sim::toMsecs(sw.hist.percentileMid(0.5)));
        s.gauge("latency.p95Ms", sim::toMsecs(sw.hist.percentileMid(0.95)));
        s.gauge("latency.p99Ms", sim::toMsecs(sw.hist.percentileMid(0.99)));
        s.gauge("latency.p999Ms",
                sim::toMsecs(sw.hist.percentileMid(0.999)));
        s.gauge("latency.maxMs", sim::toMsecs(sw.hist.max()));
    }
    sw.hist.reset();
    if (const core::ServerArch *arch = px.arch()) {
        std::vector<core::ArchGauge> gauges;
        arch->appendTelemetryGauges(gauges);
        for (const core::ArchGauge &g : gauges)
            s.gauge(g.name, g.value);
    }
}

} // namespace

const char *
chainSupportError(const Scenario &sc)
{
    if (sc.chain.empty())
        return nullptr;
    if (sc.chain.size() < 2)
        return "a proxy chain needs at least 2 hops (an edge and a "
               "destination); leave `chain` empty for a single proxy";
    if (sc.chain.size() > 4)
        return "proxy chains support at most 4 hops (edge, up to two "
               "cores, destination)";
    // Every hop speaks the scenario transport; per-hop architectures
    // are free to vary.
    for (const auto &hop : sc.chain) {
        if (const char *err =
                core::archSupportError(hop.arch, sc.proxy.transport))
            return err;
    }
    if (sc.proxy.redirect)
        return "redirect mode short-circuits the chain (the 302 hands "
               "the caller the contact directly); run it single-proxy";
    if (sc.proxy.overload.hop.scheme == core::FeedbackScheme::Window
        && !sc.proxy.stateful)
        return "the window scheme needs stateful proxies: pending "
               "slots are released when the transaction record sees "
               "its final response";
    return nullptr;
}

const char *
clusterSupportError(const Scenario &sc)
{
    const ClusterConfig &cl = sc.cluster;
    if (!cl.enabled())
        return nullptr;
    if (cl.instances > 16)
        return "clusters support at most 16 proxy instances; beyond "
               "that the dispatcher model (one machine, one socket) "
               "stops being the interesting bottleneck";
    if (!sc.chain.empty())
        return "cluster and chain topologies are mutually exclusive: "
               "a cluster is N peers behind one dispatcher, not a "
               "linear pipeline — pick one";
    if (const char *err =
            core::dispatchSupportError(cl.policy, sc.proxy.transport))
        return err;
    if (const char *err = core::archSupportError(sc.proxy.arch,
                                                 sc.proxy.transport))
        return err;
    if (sc.proxy.redirect)
        return "redirect mode hands the caller the contact directly, "
               "bypassing the dispatcher on the next request; run it "
               "single-proxy";
    if (cl.dispatcherCores < 1)
        return "the dispatcher needs at least one core";
    if (cl.vnodes < 1)
        return "the consistent-hash ring needs at least one virtual "
               "node per instance";
    if (cl.aorPopulation > 1000000)
        return "pre-seeded AOR populations are capped at 1M per "
               "cluster (beyond that the seeding loop dominates run "
               "setup)";
    return nullptr;
}

RunResult
runScenario(const Scenario &sc)
{
    if (const char *err = chainSupportError(sc))
        throw std::invalid_argument(std::string("chain topology: ")
                                    + err);
    if (const char *err = clusterSupportError(sc))
        throw std::invalid_argument(std::string("cluster topology: ")
                                    + err);

    // Per-run retained-bytes high-water marks (pools persist across
    // runs in one process; the peaks should describe this scenario).
    sim::mem::ledgers().resetPeaks();

    sim::Simulation simu(sc.seed);
    net::Network network(simu, sc.net);
    // All server-side machine/host/proxy wiring (single proxy, chain,
    // or dispatched cluster) lives in the topology layer.
    Topology topo(simu, network, sc);
    const std::size_t hops = topo.hops();
    std::vector<sim::Machine *> &server_machines = topo.serverMachines();
    std::vector<net::Host *> &server_hosts = topo.serverHosts();
    std::vector<std::unique_ptr<core::Proxy>> &proxies = topo.proxies();
    // Profile/utilization accounting covers every proxy machine plus,
    // in a cluster, the dispatcher machine (appended last).
    std::vector<sim::Machine *> profiled = topo.profiledMachines();
    net::Host &server_host = topo.faultHost(); // what phones talk to
    core::Proxy &proxy = topo.edge();          // edge: callers

    std::vector<sim::Machine *> client_machines;
    std::vector<net::Host *> client_hosts;
    for (int i = 0; i < sc.clientMachines; ++i) {
        auto &m = simu.addMachine("client" + std::to_string(i),
                                  sc.clientCores);
        client_machines.push_back(&m);
        client_hosts.push_back(&network.attach(m));
    }

    // Scenario-level fault injection: translate machine indices into
    // host ids now that every host is attached.
    auto for_each_client = [&](int which, auto &&fn) {
        for (int i = 0; i < sc.clientMachines; ++i) {
            if (which < 0 || which == i)
                fn(client_hosts[static_cast<std::size_t>(i)]->id());
        }
    };
    for (const auto &lf : sc.linkFaults) {
        for_each_client(lf.clientMachine, [&](std::uint32_t client) {
            if (lf.toProxy)
                network.faults().setLink(client, server_host.id(),
                                         lf.imp);
            if (lf.fromProxy)
                network.faults().setLink(server_host.id(), client,
                                         lf.imp);
        });
    }
    for (const auto &pt : sc.partitions) {
        for_each_client(pt.clientMachine, [&](std::uint32_t client) {
            network.faults().addPartition(server_host.id(), client,
                                          pt.start, pt.stop);
        });
    }

    Phases phases(2 * sc.clients, sc.clients);
    phases.window = sc.measureWindow;
    const int calls_per_client = sc.measureWindow > 0
        ? INT_MAX / 4
        : sc.callsPerClient;
    // Every caller records its INVITE latencies into this one
    // histogram.
    stats::LatencyHistogram invite;
    Phones callers, callees;
    callers.reserve(static_cast<std::size_t>(sc.clients));
    callees.reserve(static_cast<std::size_t>(sc.clients));
    for (int i = 0; i < sc.clients; ++i) {
        const auto m = static_cast<std::size_t>(i % sc.clientMachines);
        auto mk_cfg = [&](const std::string &user, std::uint16_t port,
                          net::Addr proxy_addr) {
            phone::PhoneConfig cfg;
            cfg.user = user;
            cfg.port = port;
            cfg.transport = sc.proxy.transport;
            cfg.proxyAddr = proxy_addr;
            cfg.opsPerConn = sc.opsPerConn;
            cfg.answerDelay = sc.answerDelay;
            cfg.responseTimeout = sc.phoneResponseTimeout;
            cfg.retryBackoffCap = sc.phoneRetryBackoffCap;
            return cfg;
        };
        // Callers attach to the edge; callees live at the destination
        // (their home proxy) so only requests traverse the chain and
        // registrations stay local to each hop.
        callees.push_back(std::make_unique<phone::Phone>(
            *client_machines[m], *client_hosts[m],
            mk_cfg("c" + std::to_string(i),
                   static_cast<std::uint16_t>(16000 + i),
                   topo.calleeEntry())));
        callees.back()->startCallee(calls_per_client,
                                    &phases.registered, nullptr);
        phone::PhoneConfig caller_cfg =
            mk_cfg("a" + std::to_string(i),
                   static_cast<std::uint16_t>(6000 + i),
                   topo.callerEntry());
        caller_cfg.inviteLatency = &invite;
        callers.push_back(std::make_unique<phone::Phone>(
            *client_machines[m], *client_hosts[m],
            std::move(caller_cfg)));
        callers.back()->startCaller(calls_per_client,
                                    "c" + std::to_string(i),
                                    &phases.registered, &phases.start,
                                    &phases.done, &phases.stopCalling);
    }

    client_machines[0]->spawn(
        "manager", 0, [&](sim::Process &p) {
            return managerMain(p, &phases, profiled,
                               client_machines);
        });

    // Windowed telemetry (Scenario::telemetry): one series per proxy
    // hop and per client machine, plus phone-fleet and network-fabric
    // pseudo-series. Everything below — including the sampler process
    // itself — exists only when enabled, so default runs keep their
    // pinned digests byte-identical.
    std::shared_ptr<stats::TimeSeries> telemetry;
    std::vector<stats::Series *> hop_series, client_series;
    stats::Series *phone_series = nullptr;
    stats::Series *disp_series = nullptr;
    stats::Series *net_series = nullptr;
    std::vector<ServedWindow> served(proxies.size());
    std::function<void()> telemetry_sample;
    if (sc.telemetry.enabled()) {
        const char *transport =
            core::transportName(sc.proxy.transport);
        telemetry = std::make_shared<stats::TimeSeries>(
            sc.name, sc.seed, sc.telemetry.window(), transport);
        // One series per proxy instance: chain hops (hop = chain
        // index) or cluster members (hop = instance index).
        for (std::size_t i = 0; i < proxies.size(); ++i) {
            hop_series.push_back(&telemetry->add(
                server_machines[i]->name(), static_cast<int>(i),
                core::archKindName(proxies[i]->arch()->kind()),
                core::transportName(
                    proxies[i]->config().transport)));
            // The overload controller times every served request on
            // every policy (including None); the sink gives telemetry
            // a per-window latency histogram without a second timer.
            proxies[i]->shared().overload.setServedSink(
                [sw = &served[i]](sim::SimTime latency) {
                    sw->hist.record(latency);
                    ++sw->servedTotal;
                });
        }
        if (topo.cluster()) {
            disp_series = &telemetry->add(
                topo.dispatcherMachine()->name(), -1, "dispatcher",
                transport);
        }
        for (std::size_t i = 0; i < client_machines.size(); ++i) {
            client_series.push_back(&telemetry->add(
                client_machines[i]->name(), -1, "", transport));
        }
        phone_series = &telemetry->add("phones", -1, "", transport);
        net_series = &telemetry->add("net", -1, "", transport);

        telemetry_sample = [&] {
            for (std::size_t i = 0; i < proxies.size(); ++i) {
                sampleMachine(*hop_series[i], *server_machines[i],
                              *server_hosts[i]);
                sampleProxy(*hop_series[i], *proxies[i], served[i]);
            }

            if (disp_series) {
                stats::Series &s = *disp_series;
                sampleMachine(s, *topo.dispatcherMachine(),
                              *topo.dispatcherHost());
                const core::DispatcherStats &d =
                    topo.dispatcher()->stats();
                stats::emitFields(core::kDispatcherFields, d, "disp.",
                                  counterSink(s));
                for (std::size_t i = 0; i < d.toInstance.size(); ++i) {
                    s.counter("disp.toInstance" + std::to_string(i),
                              d.toInstance[i]);
                }
            }

            for (std::size_t i = 0; i < client_series.size(); ++i) {
                sampleMachine(*client_series[i],
                              *client_machines[i],
                              *client_hosts[i]);
            }

            stats::emitFields(kPhoneTotalFields,
                              sumPhones(callers, callees), "phone.",
                              counterSink(*phone_series));
            emitNetStats(network.stats(), counterSink(*net_series));
        };

        // Window 0 opens at t=0; the sampler closes a window at every
        // following multiple of the width. The last (partial) window
        // is flushed synchronously when the run's counters are read.
        for (const auto &s : telemetry->series())
            s->beginWindow(0);
        client_machines[0]->spawn(
            "telemetry", 0, [&](sim::Process &p) {
                return telemetryMain(p, &phases,
                                     sc.telemetry.window(),
                                     &telemetry_sample, telemetry.get());
            });
    }

    // Registration phase has no explicit cap; the measured phase is
    // capped at maxDuration past its start.
    while (!phases.finished) {
        sim::SimTime deadline = phases.measureStart > 0
            ? phases.measureStart + sc.maxDuration
            : simu.now() + sim::secs(30);
        simu.runUntil(std::min(deadline, simu.now() + sim::secs(1)));
        if (phases.measureStart > 0
            && simu.now() >= phases.measureStart + sc.maxDuration) {
            break;
        }
        if (phases.measureStart == 0
            && simu.now() > sim::secs(3600)) {
            break; // registration wedged: report what we have
        }
    }

    if (phases.finished && sc.settleTime > 0)
        simu.runFor(sc.settleTime);

    // Flush the final telemetry window here — the same instant the
    // end-of-run counters below are read — so every series' per-window
    // deltas sum exactly to the totals in RunResult.
    if (telemetry) {
        const sim::SimTime tele_end = simu.now();
        telemetry_sample();
        for (const auto &s : telemetry->series())
            s->finish(tele_end);
        telemetry->setMeasurePhase(
            phases.measureStart,
            phases.finished ? phases.measureEnd : tele_end);
    }

    RunResult result;
    result.timeseries = telemetry;
    result.timedOut = !phases.finished;
    const PhoneTotals phones = sumPhones(callers, callees);
    // A run cut short by the safety cap ends at its last operation.
    const sim::SimTime end = phases.finished
        ? phases.measureEnd
        : std::max(phases.measureStart, phones.lastOpDone);
    result.duration = end - phases.measureStart;
    result.ops = phones.ops;
    result.callsCompleted = phones.callsCompleted;
    result.callsFailed = phones.callsFailed;
    result.phoneRetransmissions = phones.retransmissions;
    result.reconnects = phones.reconnects;
    result.reconnectFailures = phones.reconnectFailures;
    result.phoneRejected503 = phones.rejected503;
    result.phoneBackoffs = phones.backoffs;
    if (result.duration > 0) {
        result.opsPerSec = static_cast<double>(result.ops)
            / sim::toSecs(result.duration);
    }

    // Latency percentiles over all callers' INVITE transactions.
    result.inviteP50 = invite.percentile(0.5);
    result.inviteP99 = invite.percentile(0.99);

    for (const auto &px : proxies) {
        result.counters.add(px->shared().counters);
        result.txnEntriesAtEnd += px->shared().txns.size();
        result.retransEntriesAtEnd += px->shared().retrans.size();
        result.connEntriesAtEnd += px->shared().conns.size();
        result.proxyRecvQueueDrops += px->recvQueueDrops();
        result.proxyAcceptRefused += px->acceptRefused();
    }
    if (hops > 1) {
        for (const auto &px : proxies)
            result.hopCounters.push_back(px->shared().counters);
    }
    if (topo.cluster()) {
        result.clusterInstances = static_cast<int>(proxies.size());
        for (const auto &px : proxies)
            result.instanceCounters.push_back(px->shared().counters);
        result.dispatcherStats = topo.dispatcher()->stats();
    }
    result.net = network.stats();
    result.faults = network.faults().stats();
    if (const core::ServerArch *arch = proxy.arch()) {
        result.archKind = arch->kind();
        result.archLoops = arch->loopCount();
    }
    // Profile the destination machine: it is the saturating hop the
    // distributed schemes protect (single proxy: the only machine).
    result.serverProfile = server_machines.back()->profiler();
    if (result.duration > 0) {
        // Busy share of machine @p m over the measured phase; entry
        // @p i of @p at_start is its busy time when the phase began.
        auto utilization = [&](sim::Machine &m,
                               const std::vector<sim::SimTime> &at_start,
                               std::size_t i) {
            sim::SimTime busy = m.scheduler().busyTime()
                - (i < at_start.size() ? at_start[i] : 0);
            return sim::toSecs(busy)
                / (sim::toSecs(result.duration) * m.scheduler().cores());
        };
        // Server utilization reports the busiest server-side machine
        // (hop, cluster instance, or the dispatcher). Bursts spanning
        // the phase boundary are charged when they end, so clamp the
        // tiny resulting over-count.
        for (std::size_t i = 0; i < profiled.size(); ++i) {
            result.serverUtilization = std::max(
                result.serverUtilization,
                std::min(1.0, utilization(*profiled[i],
                                          phases.serverBusyAtStart, i)));
        }
        for (std::size_t i = 0; i < client_machines.size(); ++i) {
            result.maxClientUtilization = std::max(
                result.maxClientUtilization,
                utilization(*client_machines[i],
                            phases.clientBusyAtStart, i));
        }
    }

    result.simEvents = simu.eventsRun();
    const sim::mem::Ledgers &mem = sim::mem::ledgers();
    result.memArenaPeak = mem.arena.peak;
    result.memEventSlabPeak = mem.eventSlab.peak;
    result.memFramePoolPeak = mem.framePool.peak;
    topo.requestStop();
    return result;
}

std::string
RunResult::digest() const
{
    std::string out;
    auto add = [&out](std::string_view name, std::uint64_t v) {
        out += name;
        out += '=';
        out += std::to_string(v);
        out += '\n';
    };
    add("ops", ops);
    add("callsCompleted", callsCompleted);
    add("callsFailed", callsFailed);
    add("phoneRetransmissions", phoneRetransmissions);
    add("reconnects", reconnects);
    add("reconnectFailures", reconnectFailures);
    add("duration", static_cast<std::uint64_t>(duration));
    add("inviteP50", static_cast<std::uint64_t>(inviteP50));
    add("inviteP99", static_cast<std::uint64_t>(inviteP99));
    add("timedOut", timedOut ? 1 : 0);
    stats::emitFields(core::kProxyCounterFields, counters, "", add,
                      core::kDigestRun);
    add("phoneRejected503", phoneRejected503);
    add("phoneBackoffs", phoneBackoffs);
    add("proxyRecvQueueDrops", proxyRecvQueueDrops);
    add("proxyAcceptRefused", proxyAcceptRefused);
    // Legacy line: the occupancy sampler is gone (windowed telemetry
    // samples the same gauges); kept so every golden stays identical.
    add("occupancySamples", 0);
    stats::emitFields(net::kNetStatsFields, net, "", add,
                      net::kNetDigestRun);
    add("txnEntriesAtEnd", txnEntriesAtEnd);
    add("retransEntriesAtEnd", retransEntriesAtEnd);
    add("connEntriesAtEnd", connEntriesAtEnd);
    // The blocks below are appended only when their feature was in
    // play, so digests of runs without it stay byte-identical to the
    // goldens recorded before the feature existed.
    if (net.tlsConnects || net.tlsHandshakeAborts) {
        stats::emitFields(net::kNetStatsFields, net, "", add,
                          net::kNetDigestTls);
    }
    if (net.sstMessages || net.sstChannels) {
        stats::emitFields(net::kNetStatsFields, net, "", add,
                          net::kNetDigestSst);
    }
    // Only the recvBatch/sendBatch paths record batch syscalls, and
    // the architectures take them only at batchMax > 1.
    if (net.batchRecv.calls || net.batchSend.calls) {
        for (const auto &b : net::kNetBatchFields)
            stats::emitFields(net::kBatchIoFields, net.*b.member, b.name,
                              add);
    }
    if (stats::anyField(core::kProxyCounterFields, counters,
                        core::kDigestHopCtl)) {
        stats::emitFields(core::kProxyCounterFields, counters, "", add,
                          core::kDigestHopCtl);
    }
    if (!hopCounters.empty()) {
        add("chainHops", hopCounters.size());
        for (std::size_t i = 0; i < hopCounters.size(); ++i) {
            stats::emitFields(core::kProxyCounterFields, hopCounters[i],
                              "hop" + std::to_string(i) + ".", add,
                              core::kDigestPerHop);
        }
    }
    if (clusterInstances > 0) {
        add("clusterInstances",
            static_cast<std::uint64_t>(clusterInstances));
        stats::emitFields(core::kDispatcherFields, dispatcherStats,
                          "disp", add);
        stats::emitFields(core::kProxyCounterFields, counters, "", add,
                          core::kDigestLoc);
        for (std::size_t i = 0; i < instanceCounters.size(); ++i) {
            const std::string prefix = "inst" + std::to_string(i) + ".";
            stats::emitFields(core::kProxyCounterFields,
                              instanceCounters[i], prefix, add,
                              core::kDigestPerInst);
            if (i < dispatcherStats.toInstance.size())
                add(prefix + "dispatched", dispatcherStats.toInstance[i]);
        }
    }
    out += faults.digest();
    return out;
}

stats::MetricsRegistry
collectMetrics(const RunResult &r)
{
    stats::MetricsRegistry reg;
    auto set = [&reg](std::string_view name, std::uint64_t v) {
        reg.setCounter(name, v);
    };

    // Phone-side counters (operations counted at the callers).
    reg.setCounter("phone.ops", r.ops);
    reg.setCounter("phone.callsCompleted", r.callsCompleted);
    reg.setCounter("phone.callsFailed", r.callsFailed);
    reg.setCounter("phone.retransmissions", r.phoneRetransmissions);
    reg.setCounter("phone.reconnects", r.reconnects);
    reg.setCounter("phone.reconnectFailures", r.reconnectFailures);
    reg.setCounter("phone.rejected503", r.phoneRejected503);
    reg.setCounter("phone.backoffs", r.phoneBackoffs);

    // Run shape.
    reg.setCounter("run.durationNs",
                   static_cast<std::uint64_t>(
                       r.duration > 0 ? r.duration : 0));
    reg.setCounter("run.timedOut", r.timedOut ? 1 : 0);
    reg.setGauge("run.opsPerSec", r.opsPerSec);
    reg.setGauge("run.serverUtilization", r.serverUtilization);
    reg.setGauge("run.maxClientUtilization", r.maxClientUtilization);
    reg.setGauge("run.inviteP50Ms", sim::toMsecs(r.inviteP50));
    reg.setGauge("run.inviteP99Ms", sim::toMsecs(r.inviteP99));

    // Proxy counters (summed across hops/instances), plus the proxies'
    // socket-level drops and end-of-run table occupancy.
    stats::emitFields(core::kProxyCounterFields, r.counters, "proxy.",
                      set);
    reg.setCounter("proxy.recvQueueDrops", r.proxyRecvQueueDrops);
    reg.setCounter("proxy.acceptRefused", r.proxyAcceptRefused);
    reg.setCounter("proxy.txnEntriesAtEnd", r.txnEntriesAtEnd);
    reg.setCounter("proxy.retransEntriesAtEnd",
                   r.retransEntriesAtEnd);
    reg.setCounter("proxy.connEntriesAtEnd", r.connEntriesAtEnd);

    // Server-architecture identity: the ArchKind ordinal (1 =
    // supervisor/worker, 2 = symmetric, 3 = event-driven) and how many
    // receive loops the resolved architecture actually ran.
    reg.setCounter("proxy.arch.kind",
                   static_cast<std::uint64_t>(r.archKind));
    reg.setCounter("proxy.arch.loops",
                   r.archLoops > 0
                       ? static_cast<std::uint64_t>(r.archLoops)
                       : 0);

    // Chain topology: per-hop counters under proxy.hop<i>.* (edge
    // first). Single-proxy runs emit none of these.
    reg.setCounter("proxy.chainHops", r.hopCounters.size());
    for (std::size_t i = 0; i < r.hopCounters.size(); ++i) {
        stats::emitFields(core::kProxyCounterFields, r.hopCounters[i],
                          "proxy.hop" + std::to_string(i) + ".", set);
    }

    // Cluster topology: dispatcher front-end counters under disp.*
    // plus per-instance counters under proxy.<i>.*. Non-cluster runs
    // emit none of these.
    if (r.clusterInstances > 0) {
        reg.setCounter("cluster.instances",
                       static_cast<std::uint64_t>(r.clusterInstances));
        const core::DispatcherStats &d = r.dispatcherStats;
        stats::emitFields(core::kDispatcherFields, d, "disp.", set);
        for (std::size_t i = 0; i < r.instanceCounters.size(); ++i) {
            const std::string prefix =
                "proxy." + std::to_string(i) + ".";
            stats::emitFields(core::kProxyCounterFields,
                              r.instanceCounters[i], prefix, set);
            if (i < d.toInstance.size())
                set(prefix + "dispatched", d.toInstance[i]);
        }
    }

    // Network counters, then the batch-depth histograms (bucket n
    // counts batches of exactly n messages; only occupied buckets are
    // emitted).
    emitNetStats(r.net, set);
    for (const auto &b : net::kNetBatchFields) {
        const net::BatchIoStats &io = r.net.*b.member;
        for (std::size_t i = 0; i < io.depth.size(); ++i) {
            if (io.depth[i]) {
                set("net." + std::string(b.name) + "Depth."
                        + std::to_string(i + 1),
                    io.depth[i]);
            }
        }
    }

    // Retained-bytes high-water marks (sim/mem_stats.hh).
    reg.setGauge("mem.arenaPeakBytes",
                 static_cast<double>(r.memArenaPeak));
    reg.setGauge("mem.eventSlabPeakBytes",
                 static_cast<double>(r.memEventSlabPeak));
    reg.setGauge("mem.framePoolPeakBytes",
                 static_cast<double>(r.memFramePoolPeak));

    // Injected-fault totals over every impaired link.
    stats::LinkFaultCounters f = r.faults.total();
    reg.setCounter("faults.offered", f.offered);
    reg.setCounter("faults.lost", f.lost);
    reg.setCounter("faults.duplicated", f.duplicated);
    reg.setCounter("faults.reordered", f.reordered);
    reg.setCounter("faults.delayed", f.delayed);
    reg.setCounter("faults.partitionDrops", f.partitionDrops);
    reg.setCounter("faults.partitionHeld", f.partitionHeld);
    reg.setCounter("faults.connectsRefused", f.connectsRefused);
    reg.setCounter("faults.rstsInjected", f.rstsInjected);
    reg.setCounter("faults.stalledDrops", f.stalledDrops);
    reg.setCounter("faults.recoveries", f.recoveries);

    // Server CPU profile over the measured phase: one share and one
    // milliseconds gauge per cost center that accrued any time.
    for (const auto &line :
         r.serverProfile.top(sim::CostCenters::count())) {
        reg.setGauge("profile.share." + line.name, line.pct / 100.0);
        reg.setGauge("profile.ms." + line.name,
                     sim::toMsecs(line.time));
    }
    reg.setGauge("profile.totalMs",
                 sim::toMsecs(r.serverProfile.total()));

    return reg;
}

Scenario
paperScenario(core::Transport transport, int clients, int ops_per_conn)
{
    Scenario sc;
    sc.proxy.transport = transport;
    sc.clients = clients;
    sc.opsPerConn = ops_per_conn;
    sc.proxy.workers = core::isStreamTransport(transport) ? 32 : 24;
    if (transport == core::Transport::Tls)
        sc.proxy.port = 5061; // RFC 3261 sips
    sc.proxy.stateful = true;
    // Scale call counts so each grid point runs a similar number of
    // operations regardless of client count.
    sc.callsPerClient = std::max(10, 12000 / clients);
    sc.name = std::string(core::transportName(transport)) + "/"
        + (ops_per_conn == 0 ? std::string("persistent")
                             : std::to_string(ops_per_conn) + "ops")
        + "/" + std::to_string(clients) + "c";
    return sc;
}

} // namespace siprox::workload
