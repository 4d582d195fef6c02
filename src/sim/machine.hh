/**
 * @file
 * A simulated machine: a set of CPU cores with a scheduler, a profiler,
 * and the processes spawned onto it.
 */

#ifndef SIPROX_SIM_MACHINE_HH
#define SIPROX_SIM_MACHINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/process.hh"
#include "sim/profiler.hh"
#include "sim/scheduler.hh"
#include "sim/time.hh"

namespace siprox::sim {

class Simulation;

/** Machine-wide tunables. */
struct MachineConfig
{
    SchedConfig sched;
    /** One failed try-lock iteration of a spin-then-yield lock. */
    SimTime spinTryCost = usecs(0.4);
};

/**
 * A host in the simulated testbed (the proxy server or a client box).
 */
class Machine
{
  public:
    Machine(Simulation &sim, std::string name, int cores,
            MachineConfig cfg = {});

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /**
     * Create a process and start its root task at the current time.
     *
     * @param name Process name (diagnostics, profiler).
     * @param nice Static priority, -20 (highest) .. 19.
     * @param factory Invoked once with the new Process to produce the
     *        root Task. The factory may capture; the coroutine function
     *        it calls must take its context as parameters.
     */
    Process &spawn(std::string name, int nice,
                   std::function<Task(Process &)> factory);

    Simulation &sim() const { return sim_; }
    const std::string &name() const { return name_; }

    /** Position in Simulation::machines() (stable; trace track id). */
    int id() const { return id_; }
    CpuScheduler &scheduler() { return sched_; }
    Profiler &profiler() { return prof_; }
    const Profiler &profiler() const { return prof_; }
    const MachineConfig &config() const { return cfg_; }

    /** All processes ever spawned (including terminated ones). */
    const std::vector<std::unique_ptr<Process>> &
    processes() const
    {
        return procs_;
    }

    /**
     * Record one contended lock acquisition that waited @p waited
     * before succeeding (SpinLock's spin-then-yield). Always-on
     * machine counters so windowed telemetry can diff them without a
     * trace recorder attached.
     */
    void
    noteLockContention(SimTime waited)
    {
        lockContendTime_ += waited;
        ++lockContentions_;
    }

    /** Cumulative time processes spent waiting on contended locks. */
    SimTime lockContendTime() const { return lockContendTime_; }

    /** Number of contended lock acquisitions. */
    std::uint64_t lockContentions() const { return lockContentions_; }

    /** Fraction of total core time busy over [0, elapsed]. */
    double
    utilization(SimTime elapsed) const
    {
        if (elapsed <= 0)
            return 0.0;
        double capacity = static_cast<double>(elapsed)
            * sched_.cores();
        return static_cast<double>(sched_.busyTime()) / capacity;
    }

  private:
    friend class Simulation;

    Simulation &sim_;
    std::string name_;
    int id_ = 0;
    MachineConfig cfg_;
    Profiler prof_;
    CpuScheduler sched_;
    std::vector<std::unique_ptr<Process>> procs_;
    int nextPid_ = 1;
    SimTime lockContendTime_ = 0;
    std::uint64_t lockContentions_ = 0;
};

} // namespace siprox::sim

#endif // SIPROX_SIM_MACHINE_HH
