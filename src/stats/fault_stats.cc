#include "stats/fault_stats.hh"

#include <iterator>

#include "stats/field_table.hh"

namespace siprox::stats {

namespace {

/** Field list shared by total(), table() and digest(). */
constexpr Field<LinkFaultCounters> kFields[] = {
    {"offered", &LinkFaultCounters::offered},
    {"lost", &LinkFaultCounters::lost},
    {"dup", &LinkFaultCounters::duplicated},
    {"reorder", &LinkFaultCounters::reordered},
    {"delayed", &LinkFaultCounters::delayed},
    {"partDrop", &LinkFaultCounters::partitionDrops},
    {"partHeld", &LinkFaultCounters::partitionHeld},
    {"refused", &LinkFaultCounters::connectsRefused},
    {"rst", &LinkFaultCounters::rstsInjected},
    {"stalled", &LinkFaultCounters::stalledDrops},
    {"recovered", &LinkFaultCounters::recoveries},
};
static_assert(sizeof(LinkFaultCounters)
                  == std::size(kFields) * sizeof(std::uint64_t),
              "every LinkFaultCounters field needs a kFields entry");

} // namespace

LinkFaultCounters &
FaultStats::link(std::uint32_t src, std::uint32_t dst)
{
    return links_[LinkKey{src, dst}];
}

const LinkFaultCounters *
FaultStats::find(std::uint32_t src, std::uint32_t dst) const
{
    auto it = links_.find(LinkKey{src, dst});
    return it == links_.end() ? nullptr : &it->second;
}

LinkFaultCounters
FaultStats::total() const
{
    LinkFaultCounters sum;
    for (const auto &[key, c] : links_)
        addFields(sum, c, kFields);
    return sum;
}

Table
FaultStats::table() const
{
    std::vector<std::string> columns;
    columns.push_back("link");
    for (const auto &f : kFields)
        columns.push_back(f.name);
    Table t(std::move(columns));
    auto add_row = [&t](const std::string &label,
                        const LinkFaultCounters &c) {
        std::vector<std::string> cells;
        cells.push_back(label);
        for (const auto &f : kFields)
            cells.push_back(std::to_string(c.*(f.member)));
        t.addRow(std::move(cells));
    };
    for (const auto &[key, c] : links_) {
        add_row("h" + std::to_string(key.first) + "->h"
                    + std::to_string(key.second),
                c);
    }
    if (links_.size() > 1)
        add_row("total", total());
    return t;
}

std::string
FaultStats::digest() const
{
    std::string out;
    for (const auto &[key, c] : links_) {
        out += std::to_string(key.first) + ">"
            + std::to_string(key.second);
        for (const auto &f : kFields) {
            out += ' ';
            out += std::to_string(c.*(f.member));
        }
        out += '\n';
    }
    return out;
}

} // namespace siprox::stats
