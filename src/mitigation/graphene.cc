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

Graphene::Graphene(GrapheneConfig cfg) : cfg_(cfg)
{
    tables_.resize(std::size_t(cfg_.banks));
    for (auto &t : tables_)
        t.resize(std::size_t(cfg_.tableEntries));
}

void
Graphene::onActivate(int flat_bank, int row, std::vector<int> &victims)
{
    auto &table = tables_[std::size_t(flat_bank)];

    // Space-saving summary (count-estimate variant of Misra-Gries,
    // same overestimate guarantee Graphene relies on).
    Entry *hit = nullptr;
    Entry *min_entry = &table.front();
    for (auto &e : table) {
        if (e.row == row) {
            hit = &e;
            break;
        }
        if (e.count < min_entry->count)
            min_entry = &e;
    }
    if (hit) {
        ++hit->count;
    } else {
        hit = min_entry;
        hit->row = row;
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
        for (auto &e : table)
            e = Entry{};
    }
}

} // namespace rp::mitigation
