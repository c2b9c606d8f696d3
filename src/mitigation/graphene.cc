#include "mitigation/graphene.h"

#include <algorithm>

namespace rp::mitigation {

GrapheneConfig
grapheneFor(std::uint32_t adapted_trh, Time t_refw, Time t_rc, int banks)
{
    GrapheneConfig cfg;
    cfg.threshold = std::max<std::uint32_t>(1, adapted_trh / 3);
    const double max_acts = double(t_refw) / double(t_rc);
    cfg.tableEntries = int(max_acts / double(cfg.threshold)) + 1;
    cfg.banks = banks;
    return cfg;
}

Graphene::Graphene(GrapheneConfig cfg)
    : cfg_(cfg), tables_(std::size_t(cfg.banks))
{
}

void
Graphene::onActivate(int flat_bank, int row, std::vector<int> &victims)
{
    Table &table = tables_[std::size_t(flat_bank)];

    // Space-saving summary (count-estimate variant of Misra-Gries,
    // same overestimate guarantee Graphene relies on).  A filled entry
    // never drops back to count 0 before onRefreshWindow, so the next
    // entry to fill is the lowest-index count-0 entry a scan of the
    // whole table would replace.
    const auto [slot, miss] =
        table.index.try_emplace(row, int(table.entries.size()));
    Entry *hit;
    if (!miss) {
        hit = &table.entries[std::size_t(slot->second)];
        ++hit->count;
    } else {
        if (table.entries.size() < std::size_t(cfg_.tableEntries)) {
            hit = &table.entries.emplace_back(Entry{row, 0, 0});
        } else {
            hit = &table.entries.front();
            for (auto &e : table.entries) {
                if (e.count < hit->count)
                    hit = &e;
            }
            table.index.erase(hit->row);
            slot->second = int(hit - table.entries.data());
            hit->row = row;
        }
        ++hit->count;
        // Re-anchor the service point so a replaced entry does not
        // trigger immediately on inherited count.
        hit->lastServed = (hit->count / cfg_.threshold) * cfg_.threshold;
    }

    if (hit->count >= hit->lastServed + cfg_.threshold) {
        hit->lastServed = hit->count;
        for (int d = 1; d <= cfg_.blastRadius; ++d) {
            victims.push_back(row - d);
            victims.push_back(row + d);
        }
        preventive_ += std::uint64_t(2 * cfg_.blastRadius);
    }
}

void
Graphene::onRefreshWindow()
{
    for (auto &table : tables_) {
        table.entries.clear();
        table.index.clear();
    }
}

} // namespace rp::mitigation
