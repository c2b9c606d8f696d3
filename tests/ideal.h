/**
 * @file
 * Ideal (exact) per-row activation tracker, a test-only reference
 * mechanism.
 *
 * Keeps one precise counter per activated row and preventively
 * refreshes neighbors every time a row crosses the threshold.  Not
 * implementable in real hardware at reasonable cost (that is the
 * point of Graphene's Misra-Gries summary), but valuable here as:
 *
 *  - a security reference: any approximate tracker must refresh *no
 *    later* than the ideal tracker (Graphene's overestimate
 *    guarantee, checked in ideal_mitigation_test.cc);
 *  - a lower bound on preventive-refresh overhead for a given
 *    (adapted) threshold, demonstrating that the section 7.4
 *    methodology applies to any activation-triggered mechanism.
 */

#ifndef ROWPRESS_TESTS_IDEAL_H
#define ROWPRESS_TESTS_IDEAL_H

#include <unordered_map>

#include "mitigation/mitigation.h"

namespace rp::mitigation {

/** Exact-counter mitigation (upper-bound tracker). */
class IdealCounter : public Mitigation
{
  public:
    struct Config
    {
        std::uint32_t threshold = 333; ///< Same role as Graphene's T.
        int blastRadius = 2;
    };

    explicit IdealCounter(Config cfg) : cfg_(cfg) {}

    std::string name() const override { return "IdealCounter"; }

    void
    onActivate(int flat_bank, int row,
               std::vector<int> &victims) override
    {
        const std::uint64_t key =
            (std::uint64_t(std::uint32_t(flat_bank)) << 32) |
            std::uint32_t(row);
        if (++counts_[key] % cfg_.threshold != 0)
            return;
        for (int d = 1; d <= cfg_.blastRadius; ++d) {
            victims.push_back(row - d);
            victims.push_back(row + d);
        }
        preventive_ += std::uint64_t(2 * cfg_.blastRadius);
    }

    void onRefreshWindow() override { counts_.clear(); }

    /** Exact activation count of a row in the current window. */
    std::uint64_t
    count(int flat_bank, int row) const
    {
        const std::uint64_t key =
            (std::uint64_t(std::uint32_t(flat_bank)) << 32) |
            std::uint32_t(row);
        auto it = counts_.find(key);
        return it != counts_.end() ? it->second : 0;
    }

  private:
    Config cfg_;
    std::unordered_map<std::uint64_t, std::uint64_t> counts_;
};

} // namespace rp::mitigation

#endif // ROWPRESS_TESTS_IDEAL_H
