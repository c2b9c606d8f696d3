/**
 * @file
 * Linear-scan reference of mitigation::Graphene, a test-only copy.
 *
 * Each bank's table is a fixed array of tableEntries counters, and
 * every activation scans it: the first entry holding the row is a hit;
 * otherwise the lowest-index entry with the smallest count (strict
 * `<`, so empty count-0 entries are taken in index order) is
 * replaced.  The production Graphene finds hits and empty entries
 * through a row index instead; the differential test in
 * mitigation_test.cc holds it to the same victims after every
 * activation.  Keep this a faithful copy of the scan.
 */

#ifndef ROWPRESS_TESTS_GRAPHENE_REFERENCE_H
#define ROWPRESS_TESTS_GRAPHENE_REFERENCE_H

#include <vector>

#include "mitigation/graphene.h"

namespace rp::mitigation {

/** Graphene with a full table scan per activation. */
class GrapheneReference : public Mitigation
{
  public:
    explicit GrapheneReference(GrapheneConfig cfg) : cfg_(cfg)
    {
        tables_.resize(std::size_t(cfg_.banks));
        for (auto &t : tables_)
            t.resize(std::size_t(cfg_.tableEntries));
    }

    std::string name() const override { return "GrapheneReference"; }

    void
    onActivate(int flat_bank, int row, std::vector<int> &victims) override
    {
        auto &table = tables_[std::size_t(flat_bank)];

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
            hit->lastServed =
                (hit->count / cfg_.threshold) * cfg_.threshold;
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
    onRefreshWindow() override
    {
        for (auto &table : tables_) {
            for (auto &e : table)
                e = Entry{};
        }
    }

  private:
    struct Entry
    {
        int row = -1;
        std::uint32_t count = 0;
        std::uint32_t lastServed = 0;
    };

    GrapheneConfig cfg_;
    std::vector<std::vector<Entry>> tables_; ///< Per bank.
};

} // namespace rp::mitigation

#endif // ROWPRESS_TESTS_GRAPHENE_REFERENCE_H
