#include "workloads.hh"

namespace perfbench {

using namespace siprox;
using workload::Scenario;

namespace {

/**
 * Simulated measurement windows, a quarter to a sixth of the figure
 * benches' 6 / 8 / 15 s, so that one tcp_paper repetition costs about
 * 14 host seconds. At 2.5 s every 50 ops/conn caller still reconnects.
 */
sim::SimTime
window(core::Transport t, int opsPerConn)
{
    if (t == core::Transport::Udp)
        return sim::msecs(1000);
    return sim::msecs(opsPerConn == 0 ? 1500 : 2500);
}

Cell
paperCell(const std::string &name, core::Transport t, int opsPerConn,
          bool fixes, double paperPct)
{
    Cell c;
    c.name = name;
    c.scenario = workload::paperScenario(t, 500, opsPerConn);
    c.scenario.measureWindow = window(t, opsPerConn);
    if (fixes) {
        c.scenario.proxy.fdCache = true;
        c.scenario.proxy.idleStrategy = core::IdleStrategy::PriorityQueue;
    }
    c.paperPctUdp = paperPct;
    c.udpReference = t == core::Transport::Udp;
    return c;
}

} // namespace

const std::vector<PaperRef> &
paperReference()
{
    static const std::vector<PaperRef> ref = {
        {"tcp50_baseline", "Figure 3", 500, 6794, 33350},
        {"tcp_persistent_baseline", "Figure 3", 500, 12630, 33350},
        {"tcp50_fixed", "Figure 5", 500, 20529, 33350},
        {"tcp_persistent_fixed", "Figure 5", 500, 21237, 33350},
    };
    return ref;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "udp_steady", "tcp_paper", "cluster_scale"};
    return names;
}

const std::vector<std::string> &
allCellNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const std::string &name : workloadNames()) {
            const std::optional<Workload> w = makeWorkload(name, 1, true);
            for (const Cell &c : w->cells)
                out.push_back(c.name);
        }
        return out;
    }();
    return names;
}

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, bool setupOnly)
{
    Workload w;
    w.name = name;
    if (name == "udp_steady") {
        // 1000 caller/callee pairs, 12 calls each: 24k operations on
        // the datagram hot path, with no connection machinery at all.
        Cell c;
        c.name = "udp_1000c";
        c.scenario = workload::paperScenario(core::Transport::Udp, 1000, 0);
        w.cells.push_back(std::move(c));
    } else if (name == "tcp_paper") {
        const auto &ref = paperReference();
        w.cells.push_back(paperCell("udp_reference", core::Transport::Udp,
                                    0, false, -1));
        w.cells.push_back(paperCell(ref[0].cell, core::Transport::Tcp, 50,
                                    false, ref[0].pctUdp()));
        w.cells.push_back(paperCell(ref[1].cell, core::Transport::Tcp, 0,
                                    false, ref[1].pctUdp()));
        w.cells.push_back(paperCell(ref[2].cell, core::Transport::Tcp, 50,
                                    true, ref[2].pctUdp()));
        w.cells.push_back(paperCell(ref[3].cell, core::Transport::Tcp, 0,
                                    true, ref[3].pctUdp()));
    } else if (name == "cluster_scale") {
        Cell c;
        c.name = "cluster_4i_100k_aor";
        Scenario &sc = c.scenario;
        sc = workload::paperScenario(core::Transport::Udp, 3000, 0);
        sc.callsPerClient = 4;
        // As ext_cluster_sweep's population rung: 2-core instances
        // behind a 4-core front end, which drops nothing.
        sc.serverCores = 2;
        sc.cluster.instances = 4;
        sc.cluster.policy = core::DispatchPolicy::HashAor;
        sc.cluster.dispatcherCores = 4;
        sc.cluster.aorPopulation = 100000;
        sc.telemetry.windowMs = 100;
        w.cells.push_back(std::move(c));
    } else {
        return std::nullopt;
    }
    for (Cell &c : w.cells) {
        c.scenario.seed = seed;
        c.scenario.name = name + "/" + c.name;
        // Past the 1 s transaction linger, so the tables must drain.
        c.scenario.settleTime = sim::secs(2);
        // A delivery jitter far below the 60 us wire latency: it drops
        // nothing, but makes the message schedule depend on the seed
        // (the fault RNG is its only consumer).
        workload::LinkFault jitter;
        jitter.imp.jitter = sim::usecs(20);
        c.scenario.linkFaults.push_back(jitter);
        if (setupOnly) {
            c.scenario.measureWindow = 0;
            c.scenario.callsPerClient = 1;
        }
    }
    return w;
}

} // namespace perfbench
