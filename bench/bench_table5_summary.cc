/**
 * @file
 * Tables 5 and 6: per-die-revision summary of RowHammer and RowPress
 * vulnerabilities - ACmin at representative tAggON values, tAggONmin
 * at AC = 1 and AC = 10K, and maximum BER - at 50 C and 80 C.
 */

#include <algorithm>

#include "api/context.h"
#include "core/rowpress.h"

using namespace rp;
using namespace rp::literals;

namespace {

void
runTable5(api::ExperimentContext &ctx)
{
    auto dies = ctx.dies();

    api::Dataset t5("Table 5 analogue: ACmin (mean) and tAggONmin "
                    "(mean)");
    t5.header({"die", "AC@36ns 50C", "AC@7.8us 50C", "AC@70.2us 50C",
               "AC@7.8us 80C", "tOnMin@AC=1 50C", "tOnMin@AC=1 80C"});

    api::Dataset t6("Table 6 analogue: max BER @ max activation count "
                    "(SS)");
    t6.header({"die", "BER@36ns 50C", "BER@7.8us 50C",
               "BER@7.8us 80C"});

    for (const auto &die : dies) {
        const auto mc50 = ctx.moduleConfig(die, 50.0);
        const auto mc80 = ctx.moduleConfig(die, 80.0);

        auto cell = [&](const chr::ModuleConfig &mc,
                        Time t) -> std::string {
            // Table 5 reports the stronger of SS and DS.
            auto ss = chr::acminPoint(mc, ctx.engine(), t,
                                      chr::AccessKind::SingleSided);
            auto ds = chr::acminPoint(mc, ctx.engine(), t,
                                      chr::AccessKind::DoubleSided);
            double best = 0.0;
            if (ss.meanAcmin() > 0)
                best = ss.meanAcmin();
            if (ds.meanAcmin() > 0)
                best = best > 0 ? std::min(best, ds.meanAcmin())
                                : ds.meanAcmin();
            return best > 0 ? api::fmtCount(best)
                            : std::string("No Bitflip");
        };
        auto ton = [&](const chr::ModuleConfig &mc) -> std::string {
            auto p = chr::tAggOnMinPoint(mc, ctx.engine(), 1,
                                         chr::AccessKind::SingleSided);
            auto s = p.summary();
            return s.count
                       ? formatTime(Time(s.mean * double(units::US)))
                       : std::string("No Bitflip");
        };

        t5.row({die.id, cell(mc50, 36_ns), cell(mc50, 7800_ns),
                cell(mc50, 70200_ns), cell(mc80, 7800_ns), ton(mc50),
                ton(mc80)});

        auto ber = [&](const chr::ModuleConfig &mc, Time t) {
            chr::Module m(mc);
            auto attempt = chr::maxActivationAttempt(
                m, 0, chr::AccessKind::SingleSided,
                chr::DataPattern::CheckerBoard, t);
            return api::cell(double(attempt.flips.size()) /
                             double(chr::bitsPerRow(m)));
        };
        t6.row({die.id, ber(mc50, 36_ns), ber(mc50, 7800_ns),
                ber(mc80, 7800_ns)});
    }
    ctx.emit(t5);
    ctx.note("\n");
    ctx.emit(t6);
    ctx.note("\nCompare against the calibration targets recorded in "
             "device/die_config.cc\n(transcribed from paper Tables "
             "5/6).\n\n");
}

REGISTER_EXPERIMENT(table5, "Tables 5/6: module summary",
                    "Table 5 (ACmin / tAggONmin), Table 6 (max BER); "
                    "all 12 dies with --dies all",
                    "characterization", runTable5);

} // namespace
