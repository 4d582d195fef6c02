#include "sim/sync.hh"

#include "sim/machine.hh"
#include "sim/simulation.hh"
#include "sim/trace.hh"

namespace siprox::sim {

SpinLock::SpinLock(std::string name)
    : name_(std::move(name)),
      spinCenter_(CostCenters::id("user:spinlock"))
{
}

Task
SpinLock::acquire(Process &p)
{
    // Spin-then-yield, with the simulated spin slice growing while the
    // lock stays held. The total CPU burned matches a real spinner's;
    // coarsening long waits just caps the event rate (overshoot is at
    // most one slice against millisecond-scale holds).
    SimTime contend_start = -1;
    SimTime slice = p.machine().config().spinTryCost;
    const SimTime max_slice = 16 * p.machine().config().spinTryCost;
    while (!tryAcquire()) {
        if (contend_start < 0)
            contend_start = p.sim().now();
        ++contentions_;
        co_await p.cpu(slice, spinCenter_);
        co_await p.yieldCpu();
        if (slice < max_slice)
            slice *= 2;
    }
    if (contend_start >= 0) {
        p.machine().noteLockContention(p.sim().now() - contend_start);
    }
    if (trace::recording()) {
        SimTime now = p.sim().now();
        if (contend_start >= 0) {
            trace::recorder()->lockContend(p, name_, contend_start,
                                           now - contend_start);
        }
        holdMachine_ = &p.machine();
        holdStart_ = now;
    }
}

void
SpinLock::release()
{
    held_ = false;
    if (holdMachine_) {
        if (trace::recording()) {
            Machine &m = *holdMachine_;
            trace::recorder()->lockHold(m, name_, holdStart_,
                                        m.sim().now() - holdStart_);
        }
        holdMachine_ = nullptr;
    }
}

void
Latch::arrive()
{
    if (remaining_ > 0)
        --remaining_;
    if (remaining_ == 0)
        waiting_.wakeAll();
}

Task
Latch::wait(Process &p)
{
    while (remaining_ > 0)
        co_await waiting_.park(p, "latch");
}

} // namespace siprox::sim
