#include "mitigation/trr.h"

#include <algorithm>

namespace rp::mitigation {

void
Trr::onActivate(int flat_bank, int row, std::vector<int> &victims)
{
    (void)victims;
    if (std::size_t(flat_bank) >= banks_.size())
        banks_.resize(std::size_t(flat_bank) + 1);
    Sampler &s = banks_[std::size_t(flat_bank)];
    if (s.table.empty())
        s.table.resize(std::size_t(cfg_.tableEntries));

    // Recency sampler: remember the latest distinct rows.
    if (s.recent.empty() || s.recent.front() != row) {
        s.recent.insert(s.recent.begin(), row);
        if (int(s.recent.size()) > cfg_.recentRows)
            s.recent.resize(std::size_t(cfg_.recentRows));
    }

    // Misra-Gries frequent-item summary.
    for (auto &e : s.table) {
        if (e.row == row) {
            ++e.count;
            return;
        }
    }
    for (auto &e : s.table) {
        if (e.row < 0 || e.count == 0) {
            e.row = row;
            e.count = 1;
            return;
        }
    }
    for (auto &e : s.table)
        --e.count;
}

void
Trr::appendNeighbors(int row, std::vector<int> &out) const
{
    for (int d = 1; d <= cfg_.neighborhood; ++d) {
        out.push_back(row - d);
        out.push_back(row + d);
    }
}

void
Trr::onRefresh(int flat_bank, std::vector<int> &victims)
{
    if (std::size_t(flat_bank) >= banks_.size())
        return;
    Sampler &s = banks_[std::size_t(flat_bank)];
    const std::size_t first = victims.size();

    for (int row : s.recent)
        appendNeighbors(row, victims);
    s.recent.clear();

    auto top = std::max_element(
        s.table.begin(), s.table.end(),
        [](const Entry &a, const Entry &b) { return a.count < b.count; });
    if (top != s.table.end() && top->row >= 0 &&
        top->count >= cfg_.actThreshold) {
        appendNeighbors(top->row, victims);
        top->row = -1;
        top->count = 0;
    }

    const auto mine = victims.begin() + std::ptrdiff_t(first);
    std::sort(mine, victims.end());
    victims.erase(std::unique(mine, victims.end()), victims.end());
    preventive_ += victims.size() - first;
}

void
Trr::appendState(std::vector<std::int64_t> &out) const
{
    for (const Sampler &s : banks_) {
        out.push_back(std::int64_t(s.recent.size()));
        out.insert(out.end(), s.recent.begin(), s.recent.end());
        out.push_back(std::int64_t(s.table.size()));
        for (const Entry &e : s.table) {
            out.push_back(e.row);
            out.push_back(e.count);
        }
    }
}

} // namespace rp::mitigation
