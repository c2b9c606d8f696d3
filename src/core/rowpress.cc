#include "core/rowpress.h"

#include <algorithm>

namespace rp {

mitigation::DisturbProfile
characterizeProfile(const device::DieConfig &die,
                    core::ExperimentEngine &engine,
                    const ProfileOptions &opts)
{
    // Flatten the (tMro x temperature x AccessKind) grid into one task
    // set.  Every task measures the base (tAggON = tRAS) and pressed
    // (tAggON = tMro) ACmin of all locations on its own Module and
    // reduces them to the worst per-location ratio of its grid cell.
    const std::size_t n_temps = opts.temperatures.size();
    const std::size_t n_kinds = opts.kinds.size();
    const std::size_t per_mro = n_temps * n_kinds;

    auto ratios = engine.map<double>(
        opts.tMros.size() * per_mro, [&](const core::TaskContext &ctx) {
            const Time t_mro = opts.tMros[ctx.index / per_mro];
            const double temp =
                opts.temperatures[(ctx.index % per_mro) / n_kinds];
            const auto kind = opts.kinds[ctx.index % n_kinds];

            chr::ModuleConfig mc;
            mc.die = die;
            mc.numLocations = opts.numLocations;
            mc.temperatureC = temp;
            mc.seed = opts.seed;
            chr::Module module(mc);

            double worst_ratio = 1.0;
            auto base = chr::acminPoint(
                module, module.platform().timing().tRAS, kind);
            auto point = chr::acminPoint(module, t_mro, kind);
            if (base.fractionFlipped() <= 0.0 ||
                point.fractionFlipped() <= 0.0)
                return worst_ratio;
            // Worst case: smallest per-location ratio.
            for (std::size_t i = 0; i < point.locations.size(); ++i) {
                const auto &p = point.locations[i];
                const auto &b = base.locations[i];
                if (p.flipped && b.flipped && b.acmin > 0) {
                    worst_ratio = std::min(
                        worst_ratio, double(p.acmin) / double(b.acmin));
                }
            }
            return worst_ratio;
        });

    // In-order reduction: min() is exact on doubles, so the grouping
    // cannot perturb the result.
    mitigation::DisturbProfile profile;
    for (std::size_t mi = 0; mi < opts.tMros.size(); ++mi) {
        double worst_ratio = 1.0;
        for (std::size_t k = 0; k < per_mro; ++k)
            worst_ratio =
                std::min(worst_ratio, ratios[mi * per_mro + k]);
        profile.points.push_back({opts.tMros[mi], worst_ratio});
    }
    return profile;
}

mitigation::DisturbProfile
characterizeProfile(const device::DieConfig &die,
                    const ProfileOptions &opts)
{
    core::ExperimentEngine engine;
    return characterizeProfile(die, engine, opts);
}

const char *
version()
{
    return "1.0.0";
}

} // namespace rp
