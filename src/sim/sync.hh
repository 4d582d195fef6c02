/**
 * @file
 * Synchronization primitives over simulated processes.
 *
 * SpinLock models the OpenSER/SER user-level lock: a failed try spins
 * briefly and calls sched_yield, so contention converts directly into
 * scheduler churn — the effect behind the paper's §5.2 kernel profiles.
 * Latch is a blocking countdown the workload driver uses to phase a
 * run.
 */

#ifndef SIPROX_SIM_SYNC_HH
#define SIPROX_SIM_SYNC_HH

#include <cstdint>
#include <string>

#include "sim/pollable.hh"
#include "sim/process.hh"
#include "sim/task.hh"

namespace siprox::sim {

/**
 * Spin-then-yield lock (OpenSER style). Acquire must be awaited:
 *   co_await lock.acquire(self);
 */
class SpinLock
{
  public:
    explicit SpinLock(std::string name = "spinlock");

    /** Spin (burning CPU) and sched_yield until the lock is taken. */
    Task acquire(Process &p);

    /** Take the lock iff free. Bare tryAcquire/release pairs are not
     *  tracked as timeline hold intervals (no process context). */
    bool
    tryAcquire()
    {
        if (held_)
            return false;
        held_ = true;
        return true;
    }

    void release();

    bool held() const { return held_; }

    /** Number of failed acquisition attempts (contention metric). */
    std::uint64_t contentions() const { return contentions_; }

    const std::string &name() const { return name_; }

  private:
    bool held_ = false;
    std::uint64_t contentions_ = 0;
    std::string name_;
    CostCenterId spinCenter_;
    /** Hold-interval tracking, set by acquire() while a recorder is
     *  installed; release() emits the lock-track slice. */
    Machine *holdMachine_ = nullptr;
    SimTime holdStart_ = 0;
};

/** RAII-style scoped hold is impossible across co_await; use acquire/
 *  release pairs and keep critical sections small. */

/**
 * Single-use countdown latch; processes wait for N arrivals.
 */
class Latch
{
  public:
    explicit Latch(int count) : remaining_(count) {}

    /** Record one arrival (not necessarily from a waiting process). */
    void arrive();

    /** Block until the count reaches zero. */
    Task wait(Process &p);

    int remaining() const { return remaining_; }

  private:
    int remaining_;
    WaitQueue waiting_;
};

} // namespace siprox::sim

#endif // SIPROX_SIM_SYNC_HH
