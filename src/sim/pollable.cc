#include "sim/pollable.hh"

#include "sim/simulation.hh"

namespace siprox::sim {

Task
poll(Process &self, const std::vector<Pollable *> &items, SimTime timeout,
     std::vector<int> &ready)
{
    Simulation &sim = self.sim();
    SimTime deadline =
        timeout == kTimeNever ? kTimeNever : sim.now() + timeout;
    ready.clear();
    for (;;) {
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (items[i]->pollReady())
                ready.push_back(static_cast<int>(i));
        }
        if (!ready.empty())
            co_return;
        if (sim.now() >= deadline)
            co_return;
        for (Pollable *it : items)
            it->pollers().add(&self);
        EventHandle timer;
        if (deadline != kTimeNever) {
            Process *p = &self;
            timer = sim.at(deadline, [p] { p->wake(); });
        }
        co_await self.block("poll", trace::Wait::Socket);
        timer.cancel();
        // A notify pops its pollers; only the objects that did not
        // fire still hold this process.
        for (Pollable *it : items)
            it->pollers().remove(&self);
    }
}

} // namespace siprox::sim
