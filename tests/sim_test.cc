/**
 * @file
 * Performance-simulator tests: controller scheduling and policies,
 * core window mechanics, workload generator statistics (parameterized
 * over all presets), and system-level metrics.
 */

#include <gtest/gtest.h>

#include "mitigation/para.h"
#include "mitigation/trr.h"
#include "sim/system.h"

namespace rp::sim {
namespace {

using namespace rp::literals;

TEST(Controller, EnqueueRespectsQueueSize)
{
    ControllerConfig cfg;
    cfg.queueSize = 4;
    Controller mc(cfg);
    Request req;
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(mc.canEnqueue(false));
        mc.enqueue(req);
    }
    EXPECT_FALSE(mc.canEnqueue(false));
    EXPECT_TRUE(mc.canEnqueue(true)); // write queue independent
}

TEST(Controller, ServesReadAndReportsRowHitMiss)
{
    ControllerConfig cfg;
    Controller mc(cfg);
    Request::Slot slot_a, slot_b;

    Request a;
    a.addr.row = 100;
    a.slot = &slot_a;
    mc.enqueue(a);
    Request b = a;
    b.addr.column = 5;
    b.slot = &slot_b;
    mc.enqueue(b);

    Time now = 0;
    for (int i = 0; i < 500 && (slot_a.doneAt < 0 || slot_b.doneAt < 0);
         ++i) {
        mc.tick(now);
        now += cfg.timing.tCK;
    }
    ASSERT_GE(slot_a.doneAt, 0);
    ASSERT_GE(slot_b.doneAt, 0);
    EXPECT_EQ(mc.stats().rowMisses, 1u);
    EXPECT_EQ(mc.stats().rowHits, 1u);
    EXPECT_GT(slot_b.doneAt, slot_a.doneAt - cfg.timing.tCL);
    EXPECT_TRUE(mc.drained());
}

TEST(Controller, RowConflictForcesPrechargeActivate)
{
    ControllerConfig cfg;
    Controller mc(cfg);
    Request::Slot s1, s2;
    Request a;
    a.addr.row = 1;
    a.slot = &s1;
    Request b;
    b.addr.row = 2;
    b.slot = &s2;
    mc.enqueue(a);
    mc.enqueue(b);
    Time now = 0;
    for (int i = 0; i < 2000 && s2.doneAt < 0; ++i) {
        mc.tick(now);
        now += cfg.timing.tCK;
    }
    ASSERT_GE(s2.doneAt, 0);
    EXPECT_EQ(mc.stats().acts, 2u);
    EXPECT_EQ(mc.stats().rowMisses, 2u);
}

TEST(Controller, TMroForcesPrecharge)
{
    ControllerConfig cfg;
    cfg.tMro = cfg.timing.tRAS;
    Controller mc(cfg);
    Request::Slot s1, s2;
    Request a;
    a.addr.row = 1;
    a.slot = &s1;
    mc.enqueue(a);
    Time now = 0;
    for (int i = 0; i < 1000; ++i) {
        mc.tick(now);
        now += cfg.timing.tCK;
    }
    // A row-hit arriving after t_mro expiry becomes a miss.
    Request b = a;
    b.addr.column = 3;
    b.slot = &s2;
    mc.enqueue(b);
    for (int i = 0; i < 1000 && s2.doneAt < 0; ++i) {
        mc.tick(now);
        now += cfg.timing.tCK;
    }
    ASSERT_GE(s2.doneAt, 0);
    EXPECT_GE(mc.stats().forcedPrecharges, 1u);
    EXPECT_EQ(mc.stats().rowMisses, 2u);
    EXPECT_EQ(mc.stats().rowHits, 0u);
}

TEST(Controller, RefreshHappensEveryTrefi)
{
    ControllerConfig cfg;
    Controller mc(cfg);
    Time now = 0;
    const Time horizon = 10 * cfg.timing.tREFI;
    while (now < horizon) {
        mc.tick(now);
        now += cfg.timing.tCK;
    }
    // Two ranks, ~10 tREFI windows each.
    EXPECT_GE(mc.stats().refreshes, 16u);
    EXPECT_LE(mc.stats().refreshes, 22u);
}

TEST(Controller, MitigationVictimsCostPreventiveActs)
{
    mitigation::Para para(mitigation::ParaConfig{1.0, 1}); // always
    ControllerConfig cfg;
    cfg.mitigation = &para;
    Controller mc(cfg);
    Request::Slot slot;
    Request a;
    a.addr.row = 50;
    a.slot = &slot;
    mc.enqueue(a);
    Time now = 0;
    for (int i = 0; i < 3000 && !mc.drained(); ++i) {
        mc.tick(now);
        now += cfg.timing.tCK;
    }
    EXPECT_GE(mc.stats().preventiveActs, 1u);
    // Preventive refreshes never recurse into the mitigation.
    EXPECT_LE(mc.stats().preventiveActs, 2u);
}

TEST(Controller, TrrVictimsArriveThroughTheRefreshHook)
{
    mitigation::Trr trr;
    ControllerConfig cfg;
    cfg.mitigation = &trr;
    Controller mc(cfg);
    // Alternate two rows of one bank, so every write is an ACT.
    Time now = 0;
    std::uint64_t preventive_before_ref = 0;
    for (int i = 0; now < 3 * cfg.timing.tREFI; ++i) {
        Request a;
        a.addr.row = i % 2 ? 150 : 100;
        a.write = true;
        if (mc.canEnqueue(true))
            mc.enqueue(a);
        for (int t = 0; t < 100; ++t) {
            mc.tick(now);
            now += cfg.timing.tCK;
        }
        if (mc.stats().refreshes == 0)
            preventive_before_ref = mc.stats().preventiveActs;
    }
    EXPECT_GT(mc.stats().refreshes, 0u);
    // TRR returns nothing at ACT time, only at each bank's REF.
    EXPECT_EQ(preventive_before_ref, 0u);
    EXPECT_GT(mc.stats().preventiveActs, 0u);
    EXPECT_LE(mc.stats().preventiveActs, trr.preventiveRefreshes());
}

TEST(Controller, RowActCountsAreTracked)
{
    ControllerConfig cfg;
    cfg.tMro = cfg.timing.tRAS; // force one ACT per access
    Controller mc(cfg);
    for (int i = 0; i < 3; ++i) {
        Request a;
        a.addr.row = 77;
        a.addr.column = i;
        a.write = true;
        mc.enqueue(a);
        Time now = Time(i) * 200_ns;
        for (int t = 0; t < 400; ++t) {
            mc.tick(now);
            now += cfg.timing.tCK;
        }
    }
    const int flat_bank = dram::Address{}.flatBank(cfg.org);
    EXPECT_EQ(mc.rowActCount(flat_bank, 77), 3u);
    EXPECT_EQ(mc.stats().maxRowActs, 3u);
}

TEST(Core, PureComputeRetiresAtIssueWidth)
{
    // A workload with essentially no memory accesses must retire at
    // ~issueWidth IPC.
    ControllerConfig mem_cfg;
    Controller mc(mem_cfg);
    workloads::WorkloadParams w;
    w.name = "compute";
    w.mpki = 0.01;
    dram::AddressMapper mapper(mem_cfg.org);
    workloads::TraceGen gen(w, mapper, 1);
    CoreConfig cc;
    cc.instrLimit = 50000;
    Core core(0, std::move(gen), mc, cc);

    Time now = 0;
    std::uint64_t cycle = 0;
    while (!core.done() && cycle < 1000000) {
        core.tick(now);
        mc.tick(now);
        now += 250;
        ++cycle;
    }
    EXPECT_TRUE(core.done());
    EXPECT_GT(core.ipc(), 3.5);
}

TEST(Core, MemoryBoundWorkloadIsSlower)
{
    auto run = [](double mpki) {
        ControllerConfig mem_cfg;
        Controller mc(mem_cfg);
        workloads::WorkloadParams w;
        w.mpki = mpki;
        w.rowLocality = 0.2;
        dram::AddressMapper mapper(mem_cfg.org);
        workloads::TraceGen gen(w, mapper, 1);
        CoreConfig cc;
        cc.instrLimit = 30000;
        Core core(0, std::move(gen), mc, cc);
        Time now = 0;
        while (!core.done()) {
            core.tick(now);
            mc.tick(now);
            now += 250;
        }
        return core.ipc();
    };
    EXPECT_GT(run(1.0), 1.5 * run(50.0));
}

class PresetStatistics
    : public ::testing::TestWithParam<workloads::WorkloadParams>
{
};

/** Generator property: emitted streams match the preset's statistics. */
TEST_P(PresetStatistics, MpkiAndLocalityAreRealized)
{
    const auto &w = GetParam();
    dram::Organization org;
    org.ranks = 2;
    dram::AddressMapper mapper(org);
    workloads::TraceGen gen(w, mapper, 5);

    std::uint64_t instrs = 0, rows_same = 0, writes = 0;
    const int n = 20000;
    dram::Address last{};
    bool have_last = false;
    for (int i = 0; i < n; ++i) {
        auto item = gen.next();
        instrs += std::uint64_t(item.bubbles) + 1;
        writes += item.write ? 1 : 0;
        auto a = mapper.decode(item.addr);
        if (have_last && a.row == last.row && a.sameBank(last))
            ++rows_same;
        last = a;
        have_last = true;
    }
    const double mpki = double(n) / double(instrs) * 1000.0;
    EXPECT_NEAR(mpki, w.mpki, w.mpki * 0.25) << w.name;
    const double locality = double(rows_same) / double(n);
    EXPECT_NEAR(locality, w.rowLocality, 0.08) << w.name;
    EXPECT_NEAR(double(writes) / double(n), w.writeFrac, 0.05)
        << w.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, PresetStatistics,
    ::testing::ValuesIn(workloads::allWorkloads()),
    [](const ::testing::TestParamInfo<workloads::WorkloadParams> &info) {
        std::string n = info.param.name;
        for (auto &c : n) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

TEST(Workloads, RegistryAndMixes)
{
    EXPECT_GE(workloads::allWorkloads().size(), 40u);
    EXPECT_EQ(workloads::workloadByName("429.mcf").category, 'H');
    EXPECT_FALSE(workloads::highIntensityWorkloads().empty());
    EXPECT_FALSE(workloads::lowIntensityWorkloads().empty());
    auto mix = workloads::makeMix("HHLL", 3);
    ASSERT_EQ(mix.size(), 4u);
    EXPECT_EQ(mix[0].category, 'H');
    EXPECT_EQ(mix[3].category, 'L');
}

TEST(System, RunsToCompletionAndReportsIpc)
{
    SystemConfig cfg;
    cfg.core.instrLimit = 20000;
    cfg.workloads = {workloads::workloadByName("462.libquantum")};
    auto res = runSystem(cfg);
    ASSERT_EQ(res.cores.size(), 1u);
    EXPECT_EQ(res.cores[0].instrs, 20000u);
    EXPECT_GT(res.ipcOf(0), 0.1);
    EXPECT_GT(res.mem.reads, 100u);
    EXPECT_GT(res.mem.rowHitRate(), 0.6); // high-locality preset
}

TEST(System, MinimallyOpenRowHurtsHighLocalityWorkloads)
{
    SystemConfig open_cfg;
    open_cfg.core.instrLimit = 30000;
    open_cfg.workloads = {workloads::workloadByName("462.libquantum")};
    auto open_res = runSystem(open_cfg);

    SystemConfig min_cfg = open_cfg;
    min_cfg.mem.tMro = min_cfg.mem.timing.tRAS;
    auto min_res = runSystem(min_cfg);

    EXPECT_LT(min_res.ipcOf(0), 0.85 * open_res.ipcOf(0));
    EXPECT_GT(min_res.mem.maxRowActs, open_res.mem.maxRowActs);
}

TEST(System, WeightedSpeedupMath)
{
    SystemResult res;
    res.cores = {{"a", 0, 0, 1.0}, {"b", 0, 0, 0.5}};
    EXPECT_DOUBLE_EQ(res.weightedSpeedup({2.0, 1.0}), 1.0);
    EXPECT_DOUBLE_EQ(res.weightedSpeedup({1.0, 1.0}), 1.5);
    EXPECT_DOUBLE_EQ(res.weightedSpeedup({0.0, 1.0}), 0.5);
}

TEST(System, FourCoreMixSharesBandwidth)
{
    const auto w = workloads::workloadByName("429.mcf");
    const double alone =
        aloneIpc(w, ControllerConfig{}, CoreConfig{128, 4, 15000});
    SystemConfig cfg;
    cfg.core.instrLimit = 15000;
    cfg.workloads = std::vector<workloads::WorkloadParams>(4, w);
    auto res = runSystem(cfg);
    for (int i = 0; i < 4; ++i)
        EXPECT_LT(res.ipcOf(std::size_t(i)), alone);
    const double ws = res.weightedSpeedup(
        std::vector<double>(4, alone));
    EXPECT_GT(ws, 1.0);
    EXPECT_LT(ws, 4.0);
}

} // namespace
} // namespace rp::sim
