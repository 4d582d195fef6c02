/**
 * @file
 * Boilerplate shared by every sweep-style bench: run-mode flags
 * (quick/smoke), measurement-window sizing, the paper-grid scenario
 * builder, and per-point progress logging.
 *
 * Set SIPROX_BENCH_QUICK=1 to shrink measurement windows ~4x for smoke
 * runs (shapes hold, absolute steady-state values shift slightly).
 * Set SIPROX_SWEEP_SMOKE=1 to collapse a sweep to one short point —
 * the CI mode that only proves the binary runs end to end.
 */

#ifndef SIPROX_BENCH_SWEEP_COMMON_HH
#define SIPROX_BENCH_SWEEP_COMMON_HH

#include "stats/table.hh"
#include "workload/scenario.hh"

namespace siprox::bench {

/** SIPROX_BENCH_QUICK=1: ~4x shorter measurement windows. */
bool quickMode();

/** SIPROX_SWEEP_SMOKE=1: reduce the sweep to one short point. */
bool smokeMode();

/** Measurement window per workload, sized so the idle-connection
 *  machinery reaches steady state where it matters. */
sim::SimTime windowFor(core::Transport transport, int ops_per_conn);

/** paperScenario with the measurement window already applied. */
workload::Scenario sweepScenario(core::Transport transport, int clients,
                                 int ops_per_conn);

/**
 * Scale the per-message SIP-processing costs by @p factor so a client
 * ladder crosses saturation at a simulable client count: at 40x, ~750
 * calls/s on the default 4-core server instead of ~15k (which a
 * closed-loop workload only saturates with tens of thousands of
 * phones).
 */
void slowCosts(core::CostModel &costs, double factor);

/** One-line per-point progress note on stderr. */
void logPoint(const workload::Scenario &sc,
              const workload::RunResult &r);

} // namespace siprox::bench

#endif // SIPROX_BENCH_SWEEP_COMMON_HH
