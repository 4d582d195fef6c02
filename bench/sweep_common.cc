#include "sweep_common.hh"

#include <cstdio>
#include <cstdlib>

namespace siprox::bench {

bool
quickMode()
{
    const char *env = std::getenv("SIPROX_BENCH_QUICK");
    return env && env[0] == '1';
}

bool
smokeMode()
{
    const char *env = std::getenv("SIPROX_SWEEP_SMOKE");
    return env && env[0] == '1';
}

sim::SimTime
windowFor(core::Transport transport, int ops_per_conn)
{
    double seconds;
    // Byte-stream transports (TCP, TLS) are slower per op, and churn
    // workloads slower still: give them proportionally longer windows
    // so every cell completes a comparable number of calls.
    if (!core::isStreamTransport(transport))
        seconds = 6;
    else if (ops_per_conn == 0)
        seconds = 8;
    else
        seconds = 15;
    if (quickMode())
        seconds /= 4;
    return sim::secs(seconds);
}

workload::Scenario
sweepScenario(core::Transport transport, int clients, int ops_per_conn)
{
    workload::Scenario sc =
        workload::paperScenario(transport, clients, ops_per_conn);
    sc.measureWindow = windowFor(transport, ops_per_conn);
    return sc;
}

void
slowCosts(core::CostModel &costs, double factor)
{
    for (sim::SimTime *t :
         {&costs.parse, &costs.route, &costs.serialize, &costs.txnCreate,
          &costs.txnLookup, &costs.txnUpdate, &costs.registrarLookup,
          &costs.registrarUpdate})
        *t = static_cast<sim::SimTime>(static_cast<double>(*t) * factor);
}

void
logPoint(const workload::Scenario &sc, const workload::RunResult &r)
{
    std::fprintf(stderr, "  [%s] %.0f ops/s, %llu calls ok, %llu failed\n",
                 sc.name.c_str(), r.opsPerSec,
                 static_cast<unsigned long long>(r.callsCompleted),
                 static_cast<unsigned long long>(r.callsFailed));
}

} // namespace siprox::bench
