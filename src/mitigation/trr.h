/**
 * @file
 * In-DRAM Target Row Refresh (TRR) model.
 *
 * Real DDR4 TRR implementations sample recently activated rows and
 * refresh their neighbors during regular REF commands (Frigo et al.,
 * "TRRespass"; Hassan et al., "U-TRR").  We model the two mechanisms
 * observed on commodity parts:
 *
 *  - a *recency sampler*: the rows activated immediately before a REF
 *    are treated as aggressor candidates and their neighbors are
 *    refreshed.  This is why the paper's demonstration synchronizes
 *    its access pattern with refresh and parks 16 dummy-row
 *    activations right before each REF (section 6.2) - and why the
 *    attack collapses once the aggressor phase grows past the tREFI
 *    slot and a REF lands in the middle of it (Obsv. 21);
 *  - a small Misra-Gries counter table that catches rows hammered at a
 *    sustained high rate even if they dodge the recency sampler.
 *
 * Each bank has its own sampler; victims are only ever returned from
 * the REF hook, never at activation time.
 */

#ifndef ROWPRESS_MITIGATION_TRR_H
#define ROWPRESS_MITIGATION_TRR_H

#include "mitigation/mitigation.h"

namespace rp::mitigation {

/** Sampler-based in-DRAM TRR, one sampler per bank. */
class Trr : public Mitigation
{
  public:
    struct Config
    {
        int recentRows = 2;       ///< Recency-sampled rows per REF.
        int tableEntries = 4;     ///< Counter-tracked candidates.
        int neighborhood = 2;     ///< Rows refreshed on each side.
        /** Counter value required before a victim refresh triggers. */
        std::uint32_t actThreshold = 48;
    };

    Trr() : Trr(Config{}) {}
    explicit Trr(Config cfg) : cfg_(cfg) {}

    std::string name() const override { return "TRR"; }

    /** Observe an activation; TRR never refreshes at ACT time. */
    void onActivate(int flat_bank, int row,
                    std::vector<int> &victims) override;

    /**
     * A REF reached @p flat_bank: append the neighbors of its
     * recency-sampled rows, plus those of the counter-table candidate
     * past the threshold, sorted and deduplicated.
     */
    void onRefresh(int flat_bank, std::vector<int> &victims) override;

    /**
     * Append every bank's sampler state (recent rows, then each table
     * entry's row and count) to @p out: two equal appends mean the
     * sampler will answer every future ACT/REF sequence alike.
     */
    void appendState(std::vector<std::int64_t> &out) const;

  private:
    struct Entry
    {
        int row = -1;
        std::uint32_t count = 0;
    };

    /** One bank's sampler state. */
    struct Sampler
    {
        std::vector<Entry> table;
        std::vector<int> recent; ///< Most recent distinct rows, newest first.
    };

    void appendNeighbors(int row, std::vector<int> &out) const;

    Config cfg_;
    /** Indexed by flat bank; a bank's sampler starts at its first ACT. */
    std::vector<Sampler> banks_;
};

} // namespace rp::mitigation

#endif // ROWPRESS_MITIGATION_TRR_H
