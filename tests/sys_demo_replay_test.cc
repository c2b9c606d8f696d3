/**
 * @file
 * Differential test of sys::runDemo's cycle replay against the
 * concrete-only reference in demo_reference.h.  Every DemoResult
 * field the reference fills must be exactly equal, avgTAggOnNs
 * compared with ==:
 *
 *  - over the whole Fig. 23/49 grid (NUM_AGGR_ACTS x NUM_READS x both
 *    algorithms) at chip seeds 3 and 7, sized so that every cell
 *    issues REFs whose stripe covers a victim row and crosses the
 *    first tREFW boundary, the events that end a skip; at seed 7 on a
 *    weaker, hotter chip whose cells flip bits;
 *  - with few dummy rows, where TRR's counter table fires;
 *  - with refresh synchronisation off, cyclic or not.
 *
 * The grid cells must also replay most of their iterations, so the
 * equality is not won by simulating everything.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "demo_reference.h"

namespace rp::sys {
namespace {

struct Outcome
{
    DemoConfig cfg;
    DemoResult replayed;
    DemoResult concrete;
    std::uint64_t refs = 0; ///< REFs the concrete run issued.
};

/** Both paths on every config, the configs in parallel. */
std::vector<Outcome>
runBoth(const std::vector<DemoConfig> &cfgs)
{
    core::ExperimentEngine engine(core::ExperimentEngine::Options{});
    return engine.map<Outcome>(cfgs.size(), [&](const core::TaskContext &tc) {
        Outcome o;
        o.cfg = cfgs[tc.index];
        o.replayed = runDemo(o.cfg);
        o.concrete = runDemoConcrete(o.cfg, &o.refs);
        return o;
    });
}

std::string
describe(const DemoConfig &cfg)
{
    return cfg.dieId + " seed " + std::to_string(cfg.seed) + " Algorithm " +
           (cfg.interleavedFlush ? "2" : "1") + " NUM_AGGR_ACTS " +
           std::to_string(cfg.numAggrActs) + " NUM_READS " +
           std::to_string(cfg.numReads) +
           (cfg.syncWithRefresh ? "" : " unsynchronized");
}

void
expectSame(const Outcome &o)
{
    SCOPED_TRACE(describe(o.cfg));
    EXPECT_EQ(o.replayed.totalBitflips, o.concrete.totalBitflips);
    EXPECT_EQ(o.replayed.rowsWithBitflips, o.concrete.rowsWithBitflips);
    EXPECT_EQ(o.replayed.avgTAggOnNs, o.concrete.avgTAggOnNs);
    EXPECT_EQ(o.replayed.aggressorActs, o.concrete.aggressorActs);
    EXPECT_EQ(o.replayed.targetedRefreshes, o.concrete.targetedRefreshes);
    EXPECT_EQ(o.concrete.replayedIterations, 0u);
}

/**
 * The Fig. 23/49 grid, two victims per cell.  Every iteration issues
 * at least one REF, at least two once its aggressor reads take 96 read
 * slots (Algorithm 2's flushes double a read's slot) and outgrow the
 * tREFI slot, and at least three from 256 slots.  So each cell issues
 * about 8,400 REFs: past the first tREFW boundary (REF 8,206) and past
 * the REFs that refresh the first victim's stripe.
 */
std::vector<DemoConfig>
grid(std::uint64_t seed, const std::string &die, double temperature_c)
{
    std::vector<DemoConfig> cfgs;
    for (bool interleaved : {false, true}) {
        for (int acts : {2, 3, 4}) {
            for (int reads : {1, 4, 16, 32, 48, 64}) {
                DemoConfig cfg;
                cfg.dieId = die;
                cfg.temperatureC = temperature_c;
                cfg.numVictims = 2;
                const int read_slots = acts * reads * (interleaved ? 2 : 1);
                cfg.numIters = read_slots >= 256  ? 1400
                               : read_slots >= 96 ? 2100
                                                  : 4200;
                cfg.numAggrActs = acts;
                cfg.numReads = reads;
                cfg.interleavedFlush = interleaved;
                cfg.seed = seed;
                cfgs.push_back(cfg);
            }
        }
    }
    return cfgs;
}

/** The REF that first reaches the tREFW boundary (onRefreshWindow). */
std::uint64_t
firstWindowRef()
{
    const dram::TimingParams timing = dram::ddr4_2400();
    return std::uint64_t((timing.tREFW + timing.tREFI - 1) / timing.tREFI);
}

TEST(SysDemoReplay, ReferenceReproducesPinnedResult)
{
    // SysDemo.MoreReadsKeepRowOpenLonger's second run.
    DemoConfig cfg;
    cfg.numVictims = 2;
    cfg.numIters = 2000;
    cfg.numAggrActs = 3;
    cfg.numReads = 32;
    cfg.seed = 3;
    const DemoResult res = runDemoConcrete(cfg);
    EXPECT_EQ(res.totalBitflips, 0u);
    EXPECT_EQ(res.rowsWithBitflips, 0);
    EXPECT_EQ(res.avgTAggOnNs, 970.9083333333333);
    EXPECT_EQ(res.aggressorActs, 280000u);
    EXPECT_EQ(res.targetedRefreshes, 7999u);
}

TEST(SysDemoReplay, WholeGridMatchesConcreteAtSeeds3And7)
{
    // Seed 3 on the demo system's chip; seed 7 on a weaker, hotter one,
    // where the replayed deposits add up to flips in many cells (they
    // latch at the victim-stripe REFs and the final inspection).  The
    // chip never changes a cell's commands, only its flips.
    std::vector<DemoConfig> cfgs = grid(3, "S-8Gb-C", 65.0);
    const std::vector<DemoConfig> seed7 = grid(7, "M-16Gb-F", 80.0);
    cfgs.insert(cfgs.end(), seed7.begin(), seed7.end());

    int flipping = 0;
    for (const Outcome &o : runBoth(cfgs)) {
        expectSame(o);
        SCOPED_TRACE(describe(o.cfg));
        EXPECT_GE(o.refs, firstWindowRef());
        const std::uint64_t iterations =
            std::uint64_t(o.cfg.numVictims) * std::uint64_t(o.cfg.numIters);
        EXPECT_GT(o.replayed.replayedIterations, iterations * 9 / 10);
        flipping += o.concrete.totalBitflips > 0;
    }
    EXPECT_GE(flipping, 3);
}

TEST(SysDemoReplay, TrrCounterTableCycleMatchesConcrete)
{
    // With four dummy rows TRR's counter table no longer overflows: it
    // counts the demo's rows up to its threshold and refreshes the
    // victim's neighbourhood on its own, slower schedule.  Every other
    // part of the start state repeats after one iteration, so a
    // detector blind to the table would replay a false cycle and drop
    // those restores (11 flips instead of none).
    DemoConfig cfg;
    cfg.dieId = "M-16Gb-F";
    cfg.temperatureC = 80.0;
    cfg.numVictims = 2;
    cfg.numIters = 3000;
    cfg.numDummies = 4;
    cfg.dummyActsPerIter = 1;
    cfg.numAggrActs = 3;
    cfg.numReads = 4;
    cfg.seed = 7;
    for (const Outcome &o : runBoth({cfg}))
        expectSame(o);
}

TEST(SysDemoReplay, UnsynchronizedRunsMatchConcrete)
{
    // Without the REF synchronisation an iteration's phase within
    // tREFI drifts: (3, 16) never repeats within 16 iterations and
    // runs concretely, while (4, 64) settles into a cycle.
    DemoConfig cfg;
    cfg.numVictims = 2;
    cfg.numIters = 2000;
    cfg.syncWithRefresh = false;
    cfg.seed = 3;
    cfg.numAggrActs = 3;
    cfg.numReads = 16;
    DemoConfig cyclic = cfg;
    cyclic.numAggrActs = 4;
    cyclic.numReads = 64;

    const std::vector<Outcome> outcomes = runBoth({cfg, cyclic});
    for (const Outcome &o : outcomes)
        expectSame(o);
    EXPECT_GT(outcomes[1].replayed.replayedIterations, 0u);
}

} // namespace
} // namespace rp::sys
