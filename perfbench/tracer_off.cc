/**
 * @file
 * Untraced build: no wrappers and the system allocator, so the
 * end-to-end timings measure the simulator alone.
 */

#include "tracer.hh"

namespace perfbench::trace {

bool
compiledIn()
{
    return false;
}

std::vector<std::string>
unresolved()
{
    return {};
}

void
start()
{
}

Report
stop()
{
    return Report{};
}

bool
writeSpans(const std::string &)
{
    return false;
}

} // namespace perfbench::trace
