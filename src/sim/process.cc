#include "sim/process.hh"

#include <cassert>

#include "sim/machine.hh"
#include "sim/simulation.hh"

namespace siprox::sim {

Process::Process(Machine &machine, std::string name, int nice)
    : machine_(machine), name_(std::move(name)), nice_(nice)
{
    assert(nice >= -20 && nice <= 19);
}

Simulation &
Process::sim() const
{
    return machine_.sim();
}

void
Process::CpuAwait::await_suspend(std::coroutine_handle<> h)
{
    proc.resumePoint_ = h;
    proc.machine().scheduler().submit(&proc, cost, center);
}

bool
Process::YieldAwait::await_ready() const noexcept
{
    // Continue without suspending when yielding would be a no-op.
    return !proc.machine().scheduler().wouldYield(&proc);
}

void
Process::YieldAwait::await_suspend(std::coroutine_handle<> h)
{
    proc.machine().scheduler().submitYield(&proc, h);
}

void
Process::BlockAwait::await_suspend(std::coroutine_handle<> h)
{
    proc.state_ = State::Blocked;
    proc.blockReason_ = reason;
    proc.blockClass_ = cls;
    proc.resumePoint_ = h;
    proc.blockStart_ = proc.sim().now();
}

void
Process::wake()
{
    if (state_ != State::Blocked)
        return;
    state_ = State::Waking;
    sim().at(sim().now(), [this] {
        if (state_ != State::Waking)
            return;
        state_ = State::Executing;
        const char *reason = blockReason_;
        blockReason_ = "";
        SimTime blocked = sim().now() - blockStart_;
        if (span_)
            span_->add(blockClass_, blocked);
        if (trace::recording() && blocked > 0) {
            trace::recorder()->waitSlice(*this, blockClass_, reason,
                                         blockStart_, blocked);
        }
        // Credit the sleep toward the interactivity bonus (capped).
        sleepAvg_ += blocked;
        if (sleepAvg_ > secs(1))
            sleepAvg_ = secs(1);
        auto h = resumePoint_;
        resumePoint_ = nullptr;
        h.resume();
    });
}

Task
Process::sleepFor(SimTime d, const char *reason, trace::Wait cls)
{
    SimTime deadline = sim().now() + d;
    while (sim().now() < deadline) {
        auto ev = sim().at(deadline, [this] { wake(); });
        co_await block(reason, cls);
        ev.cancel();
    }
}

SpanScope::SpanScope(Process &p) : p_(p)
{
    if (!trace::recording())
        return;
    span_.begin = p.sim().now();
    p.setSpan(&span_);
    active_ = true;
}

SpanScope::~SpanScope()
{
    if (!active_)
        return;
    if (p_.span() == &span_)
        p_.setSpan(nullptr);
    if (trace::recording())
        trace::recorder()->spanDone(p_, span_, p_.sim().now());
}

void
Process::adoptRoot(Task root)
{
    root_ = std::move(root);
    root_.setOnDone([this] {
        state_ = State::Terminated;
        failure_ = root_.exceptionPtr();
        if (failure_)
            sim().reportFailure(machine_.name() + "/" + name_, failure_);
    });
}

} // namespace siprox::sim
