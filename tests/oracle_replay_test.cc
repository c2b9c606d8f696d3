/**
 * @file
 * Differential test of the production searches against the replay
 * reference (tests/replay_reference.h), many searches in a row on one
 * module: findAcmin / findTAggOnMin answer their probes with the
 * AttemptOracle from whatever state the previous searches left, and
 * must give the reference's results and leave the platform in the
 * reference's state after every search.  Also pins the per-location
 * ACmins of the serial and the engine drivers across commits.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>

#include "chr/experiments.h"
#include "replay_reference.h"

namespace rp {
namespace {

using namespace rp::literals;

using FlipKey = std::tuple<int, int, bool, device::Mechanism>;

std::vector<FlipKey>
flipsOf(const std::vector<chr::VictimFlip> &flips)
{
    std::vector<FlipKey> out;
    for (const auto &vf : flips)
        out.emplace_back(vf.victimRow, vf.flip.bit, vf.flip.oneToZero,
                         vf.flip.mechanism);
    return out;
}

/** The platform state a search must leave as replay does. */
void
expectSameState(const bender::TestPlatform &got,
                const bender::TestPlatform &want,
                const chr::RowLayout &layout, const std::string &what)
{
    EXPECT_EQ(got.now(), want.now()) << what;
    EXPECT_EQ(got.chip().bank(layout.bank).earliest(dram::Command::ACT),
              want.chip().bank(layout.bank).earliest(dram::Command::ACT))
        << what;
    std::vector<int> rows = layout.aggressors;
    rows.insert(rows.end(), layout.victims.begin(), layout.victims.end());
    for (int row : rows) {
        EXPECT_EQ(got.chip().rowFill(layout.bank, row),
                  want.chip().rowFill(layout.bank, row))
            << what << " row " << row;
        EXPECT_EQ(got.chip().storedFlipBits(layout.bank, row),
                  want.chip().storedFlipBits(layout.bank, row))
            << what << " row " << row;
        EXPECT_EQ(got.chip().fault().lastClose(layout.bank, row),
                  want.chip().fault().lastClose(layout.bank, row))
            << what << " row " << row;
    }
}

/** One search of a case's sequence, at every location in turn. */
struct Search
{
    chr::AccessKind kind;
    Time tAggOn;            ///< ACmin search at this tAggON, or ...
    std::uint64_t acts = 0; ///< ... a tAggONmin search (acts > 0).
};

struct Case
{
    const char *name;
    int locations;
    chr::DataPattern pattern;
    double temperatureC;
    std::function<void(device::CellModelParams &)> edit;
    std::vector<Search> searches;
    int rowStride = 16;
};

const auto kSS = chr::AccessKind::SingleSided;
const auto kDS = chr::AccessKind::DoubleSided;

/** The ablation's order, then the table5 / fig15 tAggONmin search. */
const std::vector<Search> kAblationOrder = {
    {kSS, 36_ns},    {kDS, 36_ns}, {kSS, 70200_ns},
    {kDS, 70200_ns}, {kSS, 0, 1},
};

void
kappa0Rho1(device::CellModelParams &p)
{
    p.kappaDs = 0.0;
    p.rhoWeakSide = 1.0;
}

void
tauOff5us(device::CellModelParams &p)
{
    p.tauOff = 5000_ns;
}

chr::Module
moduleFor(const Case &c)
{
    chr::ModuleConfig mc;
    mc.die = device::dieS8GbD();
    mc.numLocations = c.locations;
    mc.temperatureC = c.temperatureC;
    mc.rowStride = c.rowStride;
    chr::Module module(mc);
    if (c.edit) {
        auto &cells = module.platform().chip().fault().cells();
        c.edit(cells.mutableParams());
        cells.invalidateCaches();
    }
    return module;
}

class OracleVsReplay : public ::testing::TestWithParam<Case>
{
};

TEST_P(OracleVsReplay, EverySearchMatchesAndLeavesTheSameState)
{
    const Case &c = GetParam();
    chr::Module module = moduleFor(c);
    chr::Module reference = moduleFor(c);
    std::size_t flipped = 0;
    for (const Search &s : c.searches) {
        for (int row : module.baseRows()) {
            const chr::RowLayout layout =
                chr::makeLayout(s.kind, module.config().bank, row);
            const std::string what =
                std::string(chr::accessKindName(s.kind)) + " " +
                (s.acts ? "tAggONmin at AC " + std::to_string(s.acts)
                        : "ACmin at " + formatTime(s.tAggOn)) +
                ", row " + std::to_string(row);
            if (s.acts) {
                auto got = chr::findTAggOnMin(module.platform(), layout,
                                              c.pattern, s.acts);
                auto want = ref::findTAggOnMin(reference.platform(),
                                               layout, c.pattern, s.acts);
                EXPECT_EQ(got.flipped, want.flipped) << what;
                EXPECT_EQ(got.tAggOnMin, want.tAggOnMin) << what;
                flipped += want.flipped ? 1 : 0;
            } else {
                auto got = chr::acminAtLocation(module, row, s.tAggOn,
                                                s.kind, c.pattern, {});
                auto want = ref::findAcmin(reference.platform(), layout,
                                           c.pattern, s.tAggOn);
                EXPECT_EQ(got.flipped, want.flipped) << what;
                EXPECT_EQ(got.acmin, want.acmin) << what;
                EXPECT_EQ(flipsOf(got.flips), flipsOf(want.flips)) << what;
                flipped += want.flipped ? 1 : 0;
            }
            expectSameState(module.platform(), reference.platform(),
                            layout, what);
        }
    }
    EXPECT_GT(flipped, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, OracleVsReplay,
    ::testing::Values(
        Case{"one_location", 1, chr::DataPattern::CheckerBoard, 50.0,
             nullptr, kAblationOrder},
        Case{"two_locations_rowstripe_80C", 2,
             chr::DataPattern::RowStripe, 80.0, nullptr, kAblationOrder},
        Case{"six_locations_kappa0_rho1", 6,
             chr::DataPattern::CheckerBoard, 50.0, kappa0Rho1,
             kAblationOrder},
        Case{"two_locations_tauoff5us_80C", 2,
             chr::DataPattern::CheckerBoard, 80.0, tauOff5us,
             kAblationOrder},
        Case{"one_location_rowstripe_kappa0_rho1", 1,
             chr::DataPattern::RowStripe, 50.0, kappa0Rho1,
             kAblationOrder},
        // Double-sided attempts of one activation touch only the first
        // aggressor: a tAggONmin search at AC 1, then ACmin searches
        // whose bisection reaches one activation, each starting from
        // the second aggressor's older history.
        Case{"double_sided_single_activations", 2,
             chr::DataPattern::CheckerBoard, 80.0, nullptr,
             {{kDS, 0, 1}, {kDS, 8500_us}, {kDS, 4_ms}, {kDS, 36_ns}}},
        // Layouts two rows apart: one location's victims are another's
        // aggressors, and the rows next to a layout hold data.
        Case{"overlapping_layouts", 3, chr::DataPattern::CheckerBoard,
             50.0, nullptr, kAblationOrder, 2}),
    [](const ::testing::TestParamInfo<Case> &info) {
        return std::string(info.param.name);
    });

/**
 * Per-location ACmins recorded before the oracle answered the serial
 * drivers' probes: S-8Gb-D, 50 C, 6 locations, single-sided at 36 ns.
 * The serial driver runs every location on one module, so each search
 * starts from the state the previous one left; the engine driver gives
 * each location a fresh platform.  Means 54,965.5 and 54,733.0.
 */
chr::ModuleConfig
pinnedConfig()
{
    chr::ModuleConfig mc;
    mc.die = device::dieS8GbD();
    mc.numLocations = 6;
    mc.temperatureC = 50.0;
    return mc;
}

std::vector<std::uint64_t>
acminsOf(const chr::SweepPoint &point)
{
    std::vector<std::uint64_t> acmins;
    for (const auto &loc : point.locations) {
        EXPECT_TRUE(loc.flipped) << "row " << loc.row;
        acmins.push_back(loc.acmin);
    }
    return acmins;
}

TEST(SearchPins, SerialDriverCarriesHistoryAcrossLocations)
{
    chr::Module module(pinnedConfig());
    EXPECT_EQ(acminsOf(chr::acminPoint(module, 36_ns, kSS)),
              (std::vector<std::uint64_t>{34597, 61941, 44084, 61941,
                                          80356, 46874}));
}

TEST(SearchPins, EngineDriverStartsEveryLocationFresh)
{
    core::ExperimentEngine::Options opts;
    opts.numThreads = 2;
    core::ExperimentEngine engine(opts);
    EXPECT_EQ(acminsOf(chr::acminPoint(pinnedConfig(), engine, 36_ns, kSS)),
              (std::vector<std::uint64_t>{34597, 61383, 45479, 60267,
                                          77566, 49106}));
}

} // namespace
} // namespace rp
