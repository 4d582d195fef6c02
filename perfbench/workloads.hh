/**
 * @file
 * The benchmark's workloads: named sets of scenarios built from a seed.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workload/scenario.hh"

namespace perfbench {

/** One scenario of a workload, with its paper reference if it has one. */
struct Cell
{
    std::string name;
    siprox::workload::Scenario scenario;
    /** Paper's %UDP for this cell (Fig. 3 / Fig. 5, 500 clients), or
     *  a negative value when the paper has no bar for it. */
    double paperPctUdp = -1;
    /** True for the UDP run the %UDP ratios are taken against. */
    bool udpReference = false;
};

struct Workload
{
    std::string name;
    std::vector<Cell> cells;
};

/** Names of every workload, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Names of the cells of every workload, in workload order. */
const std::vector<std::string> &allCellNames();

/**
 * Build workload @p name at @p seed. With @p setupOnly, every scenario
 * keeps its topology, population and registration phase but places
 * exactly one call per caller. nullopt for an unknown name.
 */
std::optional<Workload> makeWorkload(const std::string &name,
                                     std::uint64_t seed, bool setupOnly);

/** One paper bar pair: a TCP cell and the same figure's UDP bar. */
struct PaperRef
{
    const char *cell;
    const char *figure;
    int clients;
    double tcpOpsPerSec;
    double udpOpsPerSec;

    double pctUdp() const { return 100.0 * tcpOpsPerSec / udpOpsPerSec; }
};

/** Fig. 3 (baseline) and Fig. 5 (fd cache + priority queue) bars at
 *  500 clients, in tcp_paper's cell order. */
const std::vector<PaperRef> &paperReference();

/** Fig. 3's UDP bar at 1000 clients, ops/s: the anchor of workloads
 *  without TCP cells. */
constexpr double kPaperUdp1000 = 28395;

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
