#include "chr/overlap.h"

#include <algorithm>

namespace rp::chr {

using namespace rp::literals;

std::vector<std::uint64_t>
flipIdSet(const std::vector<VictimFlip> &flips)
{
    std::vector<std::uint64_t> ids;
    ids.reserve(flips.size());
    for (const auto &f : flips)
        ids.push_back(f.id());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
}

double
overlapFraction(const std::vector<std::uint64_t> &a,
                const std::vector<std::uint64_t> &b)
{
    if (a.empty())
        return 0.0;
    std::size_t common = 0;
    auto it = b.begin();
    for (std::uint64_t id : a) {
        it = std::lower_bound(it, b.end(), id);
        if (it == b.end())
            break;
        if (*it == id)
            ++common;
    }
    return double(common) / double(a.size());
}

namespace {

/**
 * Shared scaffold of the engine-parallel overlap analyses: run the
 * flattened (tAggON + tRAS reference) x location grid plus the
 * retention reference as ONE engine task set (no serialization
 * barrier), with @p cell_flips measuring one (tAggON, location) cell
 * on a fresh single-location Module, then assemble the per-step
 * overlap results.
 */
std::vector<OverlapResult>
overlapViaEngine(
    const ModuleConfig &mc, core::ExperimentEngine &engine,
    const std::vector<Time> &t_agg_ons,
    const std::function<std::vector<VictimFlip>(Module &, int, Time)>
        &cell_flips)
{
    const Time t_rh = dram::benderTiming().tRAS;
    std::vector<Time> grid = t_agg_ons;
    grid.push_back(t_rh);

    const std::vector<int> rows = baseRowsOf(mc);
    const std::size_t n_rows = rows.size();
    const std::size_t n_grid = grid.size() * n_rows;

    std::vector<std::vector<VictimFlip>> cells(n_grid);
    std::vector<std::uint64_t> ret_ids;
    std::vector<core::ExperimentEngine::Task> tasks;
    tasks.reserve(n_grid + 1);
    for (std::size_t i = 0; i < n_grid; ++i) {
        tasks.push_back([&, i](const core::TaskContext &) {
            const Time t = grid[i / n_rows];
            const int row = rows[i % n_rows];
            Module local(locationConfig(mc, row));
            cells[i] = cell_flips(local, row, t);
        });
    }
    tasks.push_back([&](const core::TaskContext &) {
        Module local(mc);
        ret_ids = flipIdSet(retentionFailures(local, 4.0, 80.0));
    });
    engine.run(std::move(tasks));

    auto ids_of_step = [&](std::size_t ti) {
        std::vector<VictimFlip> flips;
        for (std::size_t ri = 0; ri < n_rows; ++ri) {
            const auto &cell = cells[ti * n_rows + ri];
            flips.insert(flips.end(), cell.begin(), cell.end());
        }
        return flipIdSet(flips);
    };

    auto rh_ids = ids_of_step(grid.size() - 1);
    std::vector<OverlapResult> results;
    for (std::size_t i = 0; i < t_agg_ons.size(); ++i) {
        auto rp_ids = ids_of_step(i);
        OverlapResult r;
        r.tAggOn = t_agg_ons[i];
        r.rpCells = rp_ids.size();
        r.withRowHammer = overlapFraction(rp_ids, rh_ids);
        r.withRetention = overlapFraction(rp_ids, ret_ids);
        results.push_back(r);
    }
    return results;
}

} // namespace

std::vector<OverlapResult>
overlapAtAcmin(const ModuleConfig &mc, core::ExperimentEngine &engine,
               const std::vector<Time> &t_agg_ons, AccessKind kind,
               const SearchConfig &cfg)
{
    return overlapViaEngine(
        mc, engine, t_agg_ons,
        [&](Module &local, int row, Time t) {
            return acminAtLocation(local, row, t, kind,
                                   DataPattern::CheckerBoard, cfg)
                .flips;
        });
}

std::vector<OverlapResult>
overlapAtMaxAc(const ModuleConfig &mc, core::ExperimentEngine &engine,
               const std::vector<Time> &t_agg_ons, AccessKind kind)
{
    return overlapViaEngine(
        mc, engine, t_agg_ons,
        [&](Module &local, int row, Time t) {
            (void)row;
            return maxActivationAttempt(local, 0, kind,
                                        DataPattern::CheckerBoard, t)
                .flips;
        });
}

} // namespace rp::chr
