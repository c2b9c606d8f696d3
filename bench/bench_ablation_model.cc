/**
 * @file
 * Ablation bench for the device model's structural choices:
 *  (a) the tAggOFF hammer-recovery time constant (drives Obsv. 16);
 *  (b) the double-sided RowHammer synergy kappa (drives the SS/DS
 *      RowHammer gap);
 *  (c) the RowPress side-asymmetry rho (drives Obsv. 13's crossover);
 *  (d) the charge-domain direction mapping (drives Obsv. 8);
 *  (e) the word-correlated threshold clustering (drives the ECC
 *      multi-bit words of Figs. 25/26).
 */

#include <array>

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;
using namespace rp::literals;

namespace {

void
runAblation(api::ExperimentContext &ctx)
{
    // (b)/(c): sweep kappa and rho, watch the SS vs DS ACmin ratios
    // in the RowHammer regime (36 ns) and RowPress regime (70.2 us).
    // Each (kappa, rho) cell mutates its own private module, so the
    // grid fans out as one task set.
    const std::vector<double> kappas = {0.0, 3.0, 8.0};
    const std::vector<double> rhos = {0.0, 0.06, 1.0};
    const int locations = ctx.locations();
    const std::uint64_t seed = ctx.seed();

    auto module_for = [&](const device::DieConfig &die, double temp) {
        chr::ModuleConfig cfg;
        cfg.die = die;
        cfg.numLocations = locations;
        cfg.temperatureC = temp;
        cfg.seed = seed;
        return chr::Module(cfg);
    };

    struct KappaRhoCell
    {
        std::array<double, 4> means; // ss36, ds36, ssRp, dsRp
    };
    auto cells = ctx.engine().map<KappaRhoCell>(
        kappas.size() * rhos.size(), [&](const core::TaskContext &tc) {
            const double kappa = kappas[tc.index / rhos.size()];
            const double rho = rhos[tc.index % rhos.size()];
            chr::Module module = module_for(device::dieS8GbD(), 50.0);
            auto &params =
                module.platform().chip().fault().cells().mutableParams();
            params.kappaDs = kappa;
            params.rhoWeakSide = rho;
            module.platform().chip().fault().cells().invalidateCaches();

            KappaRhoCell cell;
            cell.means[0] =
                chr::acminPoint(module, 36_ns,
                                chr::AccessKind::SingleSided)
                    .meanAcmin();
            cell.means[1] =
                chr::acminPoint(module, 36_ns,
                                chr::AccessKind::DoubleSided)
                    .meanAcmin();
            cell.means[2] =
                chr::acminPoint(module, 70200_ns,
                                chr::AccessKind::SingleSided)
                    .meanAcmin();
            cell.means[3] =
                chr::acminPoint(module, 70200_ns,
                                chr::AccessKind::DoubleSided)
                    .meanAcmin();
            return cell;
        });

    api::Dataset table("kappa/rho ablation: DS/SS mean-ACmin ratio");
    table.header({"kappa", "rho", "DS/SS @36ns", "DS/SS @70.2us"});
    auto ratio = [](double ds, double ss) -> std::string {
        return (ds > 0 && ss > 0) ? api::cell(ds / ss)
                                  : std::string("-");
    };
    for (std::size_t ki = 0; ki < kappas.size(); ++ki) {
        for (std::size_t ri = 0; ri < rhos.size(); ++ri) {
            const auto &m = cells[ki * rhos.size() + ri].means;
            table.row({api::cell(kappas[ki]), api::cell(rhos[ri]),
                       ratio(m[1], m[0]), ratio(m[3], m[2])});
        }
    }
    ctx.emit(table);
    ctx.note("Expected: kappa > 0 makes DS RowHammer stronger "
             "(ratio < 1 at 36 ns); rho < 1\nmakes DS RowPress "
             "weaker (ratio > 1 at 70.2 us) - the Obsv. 13 "
             "crossover needs both.\n\n");

    // (a): tauOff ablation via the ONOFF pattern.
    const std::vector<Time> taus = {50_ns, 500_ns, 5000_ns};
    auto tau_cells = ctx.engine().map<std::array<double, 2>>(
        taus.size(), [&](const core::TaskContext &tc) {
            chr::Module module = module_for(device::dieS8GbD(), 50.0);
            auto &params =
                module.platform().chip().fault().cells().mutableParams();
            params.tauOff = taus[tc.index];
            module.platform().chip().fault().cells().invalidateCaches();
            return std::array<double, 2>{
                chr::onOffBer(module, 0, chr::AccessKind::SingleSided,
                              240_ns, 0.0, 1),
                chr::onOffBer(module, 0, chr::AccessKind::SingleSided,
                              240_ns, 1.0, 1)};
        });

    api::Dataset t2("tauOff ablation: SS ONOFF BER at dtA2A=240ns, "
                    "on-frac 0% vs 100%");
    t2.header({"tauOff", "BER @ 0%", "BER @ 100%"});
    for (std::size_t i = 0; i < taus.size(); ++i)
        t2.row({formatTime(taus[i]), api::cell(tau_cells[i][0]),
                api::cell(tau_cells[i][1])});
    ctx.emit(t2);
    ctx.note("Expected: larger tauOff widens the gap between "
             "max-off and max-on BER\n(Obsv. 16's small-dtA2A "
             "branch).\n\n");

    // (e): word clustering ablation via the ECC word histogram.
    const std::vector<double> sws = {0.0, 0.3, 0.6};
    auto word_stats = ctx.engine().map<chr::WordErrorStats>(
        sws.size(), [&](const core::TaskContext &tc) {
            chr::Module module = module_for(device::dieS8GbD(), 80.0);
            auto &params =
                module.platform().chip().fault().cells().mutableParams();
            params.sigmaWordP = sws[tc.index];
            module.platform().chip().fault().cells().invalidateCaches();
            auto attempt = chr::maxActivationAttempt(
                module, 0, chr::AccessKind::SingleSided,
                chr::DataPattern::CheckerBoard, 7800_ns);
            return chr::analyzeWordErrors(attempt.flips);
        });

    api::Dataset t3("Word-clustering ablation: words with >2 flips @ "
                    "7.8us SS 80C");
    t3.header({"sigmaWordP", "words 3-8", "words >8", "max/word"});
    for (std::size_t i = 0; i < sws.size(); ++i)
        t3.row({api::cell(sws[i]),
                api::cell(word_stats[i].words3to8),
                api::cell(word_stats[i].wordsOver8),
                api::cell(word_stats[i].maxFlipsPerWord)});
    ctx.emit(t3);
    ctx.note("Expected: the multi-bit words that defeat SECDED/"
             "Chipkill require the\nword-correlated threshold "
             "component.\n\n");
}

// The paper reference names a design note the repository no longer
// has.  It is ablation/result.json's paper_ref, which the committed
// artifact digests hash, so changing it is a golden change.
REGISTER_EXPERIMENT(ablation, "Model ablations", "DESIGN.md section 5",
                    "ablation", runAblation);

} // namespace
