/**
 * @file
 * Determinism regression tests for the engine-parallel experiment
 * drivers: running the same sweep at 1 and at 4 threads must produce
 * bit-identical results, because every task is a pure function of the
 * task description plus its derived seed.
 */

#include <gtest/gtest.h>

#include "core/rowpress.h"

namespace rp {
namespace {

using namespace rp::literals;

core::ExperimentEngine::Options
withThreads(int n)
{
    core::ExperimentEngine::Options opts;
    opts.numThreads = n;
    return opts;
}

ProfileOptions
smallProfileOptions()
{
    ProfileOptions opts;
    opts.numLocations = 2;
    opts.temperatures = {80.0};
    opts.kinds = {chr::AccessKind::SingleSided};
    opts.tMros = {36_ns, 96_ns, 636_ns};
    return opts;
}

TEST(ParallelDeterminism, CharacterizeProfileSerialVsParallel)
{
    const auto opts = smallProfileOptions();
    const auto die = device::dieS8GbB();

    core::ExperimentEngine serial(withThreads(1));
    core::ExperimentEngine parallel(withThreads(4));
    auto p1 = characterizeProfile(die, serial, opts);
    auto p4 = characterizeProfile(die, parallel, opts);

    ASSERT_EQ(p1.points.size(), p4.points.size());
    for (std::size_t i = 0; i < p1.points.size(); ++i) {
        EXPECT_EQ(p1.points[i].tAggOn, p4.points[i].tAggOn);
        // Bit-identical, not just approximately equal.
        EXPECT_EQ(p1.points[i].acminRatio, p4.points[i].acminRatio)
            << "profile diverged at point " << i;
    }
}

TEST(ParallelDeterminism, AcminSweepSerialVsParallel)
{
    chr::ModuleConfig mc;
    mc.die = device::dieS8GbB();
    mc.numLocations = 3;
    mc.temperatureC = 80.0;

    const std::vector<Time> sweep = {36_ns, 7800_ns, 70200_ns};

    core::ExperimentEngine serial(withThreads(1));
    core::ExperimentEngine parallel(withThreads(4));
    auto a = chr::acminSweep(mc, serial, sweep,
                             chr::AccessKind::SingleSided);
    auto b = chr::acminSweep(mc, parallel, sweep,
                             chr::AccessKind::SingleSided);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t ti = 0; ti < a.size(); ++ti) {
        ASSERT_EQ(a[ti].locations.size(), b[ti].locations.size());
        for (std::size_t li = 0; li < a[ti].locations.size(); ++li) {
            const auto &x = a[ti].locations[li];
            const auto &y = b[ti].locations[li];
            EXPECT_EQ(x.row, y.row);
            EXPECT_EQ(x.flipped, y.flipped);
            EXPECT_EQ(x.acmin, y.acmin);
            ASSERT_EQ(x.flips.size(), y.flips.size());
            for (std::size_t fi = 0; fi < x.flips.size(); ++fi)
                EXPECT_EQ(x.flips[fi].id(), y.flips[fi].id());
        }
    }
}

TEST(ParallelDeterminism, SharedThresholdStoreThreadCountInvariant)
{
    // The acmin sweep tasks all share one ThresholdStore; lazy row
    // construction order differs between 1 and 4 threads, which must
    // not change any result.
    chr::ModuleConfig mc;
    mc.die = device::dieM16GbF();
    mc.numLocations = 3;
    mc.seed = 11;

    const std::vector<Time> sweep = {36_ns, 7800_ns};
    core::ExperimentEngine serial(withThreads(1));
    core::ExperimentEngine parallel(withThreads(4));
    auto a = chr::acminSweep(mc, serial, sweep,
                             chr::AccessKind::DoubleSided);
    auto b = chr::acminSweep(mc, parallel, sweep,
                             chr::AccessKind::DoubleSided);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t ti = 0; ti < a.size(); ++ti) {
        for (std::size_t li = 0; li < a[ti].locations.size(); ++li) {
            EXPECT_EQ(a[ti].locations[li].acmin,
                      b[ti].locations[li].acmin);
            EXPECT_EQ(a[ti].locations[li].flipped,
                      b[ti].locations[li].flipped);
        }
    }
}

TEST(ParallelDeterminism, OverlapAtAcminSerialVsParallel)
{
    // 2 locations x (3 tAggONs + the tRAS reference) cells plus the
    // retention task: at 1 thread they run in index order, at 4 in
    // any order.  Each cell runs on a fresh Module, so the schedule
    // must be bit-invisible.
    chr::ModuleConfig mc;
    mc.die = device::dieS8GbB();
    mc.numLocations = 2;
    mc.temperatureC = 80.0;

    const std::vector<Time> sweep = {36_ns, 7800_ns, 70200_ns};
    core::ExperimentEngine serial(withThreads(1));
    core::ExperimentEngine parallel(withThreads(4));
    auto a = chr::overlapAtAcmin(mc, serial, sweep,
                                 chr::AccessKind::SingleSided);
    auto b = chr::overlapAtAcmin(mc, parallel, sweep,
                                 chr::AccessKind::SingleSided);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].tAggOn, b[i].tAggOn);
        EXPECT_EQ(a[i].rpCells, b[i].rpCells);
        EXPECT_EQ(a[i].withRowHammer, b[i].withRowHammer);
        EXPECT_EQ(a[i].withRetention, b[i].withRetention);
    }
}

TEST(ParallelDeterminism, OverlapAtAcminMatchesPerCellReference)
{
    // The driver against a reference built here: each (tAggON,
    // location) cell's ACmin flips from acminAtLocation on a fresh
    // single-location Module, the RowHammer set at tRAS, and the
    // retention set of one Module(mc) after 4 s at 80 C.  A driver
    // that carried one search's platform state into the next would
    // differ.
    chr::ModuleConfig mc;
    mc.die = device::dieS8GbB();
    mc.numLocations = 4;
    const auto kind = chr::AccessKind::SingleSided;
    const std::vector<Time> sweep = {36_ns,  66_ns,   96_ns,   186_ns,
                                     636_ns, 7800_ns, 70200_ns};

    core::ExperimentEngine engine(withThreads(4));
    const auto got = chr::overlapAtAcmin(mc, engine, sweep, kind);

    const std::vector<int> rows = chr::baseRowsOf(mc);
    auto ids_at = [&](Time t) {
        std::vector<chr::VictimFlip> flips;
        for (int row : rows) {
            chr::Module local(chr::locationConfig(mc, row));
            const auto cell = chr::acminAtLocation(
                local, row, t, kind, chr::DataPattern::CheckerBoard, {});
            flips.insert(flips.end(), cell.flips.begin(),
                         cell.flips.end());
        }
        return chr::flipIdSet(flips);
    };
    const auto rh_ids = ids_at(dram::benderTiming().tRAS);
    chr::Module whole(mc);
    const auto ret_ids =
        chr::flipIdSet(chr::retentionFailures(whole, 4.0, 80.0));

    ASSERT_EQ(got.size(), sweep.size());
    std::size_t rp_total = 0;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const auto rp_ids = ids_at(sweep[i]);
        EXPECT_EQ(got[i].tAggOn, sweep[i]);
        EXPECT_EQ(got[i].rpCells, rp_ids.size()) << i;
        EXPECT_EQ(got[i].withRowHammer,
                  chr::overlapFraction(rp_ids, rh_ids))
            << i;
        EXPECT_EQ(got[i].withRetention,
                  chr::overlapFraction(rp_ids, ret_ids))
            << i;
        rp_total += rp_ids.size();
    }
    EXPECT_GT(rp_total, 0u);
    EXPECT_FALSE(rh_ids.empty());
}

TEST(ParallelDeterminism, SharedStoreIdenticalToUnsharedStore)
{
    // Two models acquire the same shared store; an unregistered store
    // builds the same rows on its own.  The two models must evaluate
    // identically, and the shared rows must equal the unshared ones
    // field by field: sharing is a pure cache.
    const auto &die = device::dieS8GbB();
    device::CellModel shared_a(die, 65536, 5);
    device::CellModel shared_b(die, 65536, 5);
    const auto unshared =
        device::ThresholdStore::makePrivate(shared_a.params(), 65536, 5);

    device::DoseState dose;
    dose.press[0] = 1e12 * 40.0;
    dose.hammer[0] = dose.hammer[1] = 3e4;
    device::RowContext ctx;
    ctx.dose = &dose;
    ctx.victimFill = 0x55;
    ctx.retentionSeconds = 0.01;
    ctx.noiseSigma = 0.05;
    ctx.noiseNonce = 1234567;

    for (int row = 60; row < 70; ++row) {
        auto fa = shared_a.evaluate(1, row, ctx, false, 50.0);
        auto fb = shared_b.evaluate(1, row, ctx, false, 50.0);
        ASSERT_EQ(fa.size(), fb.size());
        for (std::size_t i = 0; i < fa.size(); ++i) {
            EXPECT_EQ(fa[i].bit, fb[i].bit);
            EXPECT_EQ(fa[i].oneToZero, fb[i].oneToZero);
        }
        // The shared row candidates are the same object; the unshared
        // ones are a distinct but identical copy.
        const device::RowCandidates &s = shared_a.rowCandidates(1, row);
        const device::RowCandidates &u = unshared->row(1, row);
        EXPECT_EQ(&s, &shared_b.rowCandidates(1, row));
        EXPECT_NE(&s, &u);
        EXPECT_EQ(s.bit, u.bit);
        EXPECT_EQ(s.thetaH, u.thetaH);
        EXPECT_EQ(s.thetaP, u.thetaP);
        EXPECT_EQ(s.tauRet, u.tauRet);
        EXPECT_EQ(s.anti, u.anti);
        EXPECT_EQ(s.domSide, u.domSide);
        EXPECT_EQ(s.minThetaH, u.minThetaH);
        EXPECT_EQ(s.minThetaP, u.minThetaP);
        EXPECT_EQ(s.minTauRet, u.minTauRet);
    }
}

TEST(ParallelDeterminism, RunSystemsSerialVsParallel)
{
    std::vector<sim::SystemConfig> cfgs;
    for (const char *name : {"429.mcf", "462.libquantum", "470.lbm"}) {
        sim::SystemConfig cfg;
        cfg.core.instrLimit = 5000;
        cfg.workloads = {workloads::workloadByName(name)};
        cfgs.push_back(cfg);
    }

    core::ExperimentEngine serial(withThreads(1));
    core::ExperimentEngine parallel(withThreads(4));
    auto a = sim::runSystems(cfgs, serial);
    auto b = sim::runSystems(cfgs, parallel);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cores.at(0).instrs, b[i].cores.at(0).instrs);
        EXPECT_EQ(a[i].cores.at(0).cycles, b[i].cores.at(0).cycles);
        EXPECT_EQ(a[i].cores.at(0).ipc, b[i].cores.at(0).ipc);
        EXPECT_EQ(a[i].mem.acts, b[i].mem.acts);
        EXPECT_EQ(a[i].mem.rowHits, b[i].mem.rowHits);
    }
}

} // namespace
} // namespace rp
