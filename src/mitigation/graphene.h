/**
 * @file
 * Graphene (Park et al., MICRO 2020): exact activation-frequency
 * tracking with Misra-Gries counter tables, low performance overhead.
 *
 * A per-bank table of counters tracks the most-activated rows within
 * each reset window.  When a row's estimated count crosses a multiple
 * of the threshold, its neighbors receive a preventive refresh.
 */

#ifndef ROWPRESS_MITIGATION_GRAPHENE_H
#define ROWPRESS_MITIGATION_GRAPHENE_H

#include <unordered_map>

#include "common/units.h"
#include "mitigation/mitigation.h"

namespace rp::mitigation {

/** Graphene configuration. */
struct GrapheneConfig
{
    /** Preventive-refresh threshold (paper Table 3's "T" row). */
    std::uint32_t threshold = 333;
    /** Counter-table entries per bank. */
    int tableEntries = 4096;
    int blastRadius = 2;    ///< Refresh +/- this many neighbors.
    int banks = 32;
};

/**
 * Derive the Graphene configuration for a (possibly RowPress-adapted)
 * RowHammer threshold, following the paper's methodology: the
 * preventive-refresh threshold is T'_RH / 3 (blast radius 2 double
 * counting) and the table is sized for the worst-case number of
 * activations per reset window.
 */
GrapheneConfig grapheneFor(std::uint32_t adapted_trh, Time t_refw,
                           Time t_rc, int banks);

/**
 * The Graphene mechanism.  Rows passed to onActivate are non-negative.
 *
 * A bank's table holds the entries filled so far in index order, up to
 * tableEntries, plus a row -> entry index: a hit is one lookup, and a
 * miss with room left appends.  Only a miss on a full table scans it,
 * for the lowest-index entry with the smallest count.
 */
class Graphene : public Mitigation
{
  public:
    explicit Graphene(GrapheneConfig cfg);

    std::string name() const override { return "Graphene"; }
    void onActivate(int flat_bank, int row,
                    std::vector<int> &victims) override;
    void onRefreshWindow() override;

  private:
    struct Entry
    {
        int row;
        std::uint32_t count;
        std::uint32_t lastServed;
    };

    struct Table
    {
        std::vector<Entry> entries;         ///< Filled, in index order.
        std::unordered_map<int, int> index; ///< Row -> entries index.
    };

    GrapheneConfig cfg_;
    std::vector<Table> tables_; ///< Per bank.
};

} // namespace rp::mitigation

#endif // ROWPRESS_MITIGATION_GRAPHENE_H
