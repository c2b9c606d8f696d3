/**
 * @file
 * Performance-simulator tests: controller scheduling and policies,
 * core window mechanics, workload generator statistics (parameterized
 * over all presets), and system-level metrics.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "mitigation/defaults.h"
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
    EXPECT_TRUE(mc.drained());
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
    Core core(std::move(gen), mc, cc);

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
        Core core(std::move(gen), mc, cc);
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

/**
 * Every ControllerStats field and each core's instrs/cycles over
 * workloads x row policies x mitigations.  The values were recorded
 * before Graphene's row index and the controller's skipped bank scans
 * existed: both are speed changes and must leave every number as it
 * was.  The 8-entry Graphene table, at threshold 4, evicts and
 * refreshes inside the controller.
 */
TEST(System, ResultsPinnedAcrossPoliciesAndMitigations)
{
    using Factory =
        std::function<std::unique_ptr<mitigation::Mitigation>()>;
    const std::pair<const char *, std::vector<workloads::WorkloadParams>>
        mixes[] = {
            {"mcf", {workloads::workloadByName("429.mcf")}},
            {"libquantum", {workloads::workloadByName("462.libquantum")}},
            {"HHLL", workloads::makeMix("HHLL", 3)},
        };
    const std::pair<const char *, Time> policies[] = {
        {"open", 0},
        {"tRAS", ControllerConfig{}.timing.tRAS},
        {"636ns", 636_ns},
    };
    mitigation::GrapheneConfig small = mitigation::standardGrapheneFor(1000);
    small.tableEntries = 8;
    small.threshold = 4;
    const std::pair<const char *, Factory> mitigations[] = {
        {"none", nullptr},
        {"graphene",
         [] {
             return std::make_unique<mitigation::Graphene>(
                 mitigation::standardGrapheneFor(1000));
         }},
        {"para",
         [] {
             return std::make_unique<mitigation::Para>(
                 mitigation::paraFor(1000));
         }},
        {"trr", [] { return std::make_unique<mitigation::Trr>(); }},
        {"graphene8",
         [small] { return std::make_unique<mitigation::Graphene>(small); }},
    };

    std::vector<std::string> got;
    for (const auto &[mix_name, mix] : mixes) {
        for (const auto &[policy_name, t_mro] : policies) {
            for (const auto &[mit_name, factory] : mitigations) {
                SystemConfig cfg;
                cfg.core.instrLimit = 20000;
                cfg.workloads = mix;
                cfg.mem.tMro = t_mro;
                const auto mit = factory ? factory() : nullptr;
                cfg.mem.mitigation = mit.get();
                const SystemResult res = runSystem(cfg);
                const ControllerStats &s = res.mem;
                std::ostringstream line;
                line << mix_name << ' ' << policy_name << ' ' << mit_name
                     << ": " << s.reads << ' ' << s.writes << ' '
                     << s.rowHits << ' ' << s.rowMisses << ' ' << s.acts
                     << ' ' << s.refreshes << ' ' << s.preventiveActs
                     << ' ' << s.forcedPrecharges << ' ' << s.maxRowActs;
                for (const auto &c : res.cores)
                    line << " | " << c.instrs << ' ' << c.cycles;
                got.push_back(line.str());
            }
        }
    }

    // reads writes rowHits rowMisses acts refreshes preventiveActs
    // forcedPrecharges maxRowActs | per core: instrs cycles
    const char *const expected[] = {
        "mcf open none: 1105 266 217 1154 1155 2 0 0 2 | 20000 36789",
        "mcf open graphene: 1105 266 217 1154 1155 2 0 0 2 | 20000 36789",
        "mcf open para: 1105 266 215 1156 1197 2 41 0 2 | 20000 38582",
        "mcf open trr: 1105 266 217 1154 1411 2 256 0 2 | 20000 39749",
        "mcf open graphene8: 1105 266 217 1154 1176 2 16 0 2 | 20000 38294",
        "mcf tRAS none: 1105 266 189 1184 1191 2 0 1180 3 | 20000 33373",
        "mcf tRAS graphene: 1105 266 189 1184 1191 2 0 1180 3 | 20000 33373",
        "mcf tRAS para: 1105 266 191 1182 1231 2 41 1142 3 | 20000 35078",
        "mcf tRAS trr: 1105 266 188 1185 1448 2 256 1182 3 | 20000 36343",
        "mcf tRAS graphene8: 1105 266 191 1182 1221 2 32 1169 3 | 20000 35351",
        "mcf 636ns none: 1105 266 217 1154 1154 2 0 77 2 | 20000 37024",
        "mcf 636ns graphene: 1105 266 217 1154 1154 2 0 77 2 | 20000 37024",
        "mcf 636ns para: 1105 266 215 1156 1201 2 41 83 2 | 20000 38559",
        "mcf 636ns trr: 1105 266 217 1154 1410 2 256 89 2 | 20000 39849",
        "mcf 636ns graphene8: 1105 266 217 1154 1170 2 12 86 2 | 20000 38094",
        "libquantum open none: 394 69 433 30 30 0 0 0 1 | 20000 15038",
        "libquantum open graphene: 394 69 433 30 30 0 0 0 1 | 20000 15038",
        "libquantum open para: 394 69 432 31 32 0 1 0 2 | 20000 15168",
        "libquantum open trr: 394 69 433 30 30 0 0 0 1 | 20000 15038",
        "libquantum open graphene8: 394 69 433 30 30 0 0 0 1 | 20000 15038",
        "libquantum tRAS none: 394 68 302 160 163 1 0 161 24 | 20000 29698",
        "libquantum tRAS graphene: 394 68 302 160 163 1 0 161 24 | 20000 29698",
        "libquantum tRAS para: 394 68 302 160 166 1 5 156 23 | 20000 30370",
        "libquantum tRAS trr: 394 68 302 160 193 1 30 161 24 | 20000 30448",
        "libquantum tRAS graphene8: 394 68 300 162 276 3 112 134 23"
        " | 20000 48973",
        "libquantum 636ns none: 394 69 433 30 30 0 0 16 1 | 20000 14928",
        "libquantum 636ns graphene: 394 69 433 30 30 0 0 16 1 | 20000 14928",
        "libquantum 636ns para: 394 69 432 31 32 0 1 16 2 | 20000 15058",
        "libquantum 636ns trr: 394 69 433 30 30 0 0 16 1 | 20000 14928",
        "libquantum 636ns graphene8: 394 69 433 30 30 0 0 16 1 | 20000 14928",
        "HHLL open none: 373 88 213 248 248 1 0 0 2"
        " | 20000 18431 | 20000 14451 | 20000 5549 | 20000 5659",
        "HHLL open graphene: 373 88 213 248 248 1 0 0 2"
        " | 20000 18431 | 20000 14451 | 20000 5549 | 20000 5659",
        "HHLL open para: 373 88 209 252 260 1 8 0 2"
        " | 20000 19203 | 20000 14971 | 20000 5552 | 20000 5669",
        "HHLL open trr: 373 88 213 248 375 1 127 0 2"
        " | 20000 19926 | 20000 14451 | 20000 5549 | 20000 5659",
        "HHLL open graphene8: 373 88 213 248 248 1 0 0 2"
        " | 20000 18431 | 20000 14451 | 20000 5549 | 20000 5659",
        "HHLL tRAS none: 374 88 130 332 333 1 0 331 7"
        " | 20000 17768 | 20000 15081 | 20000 5927 | 20000 5726",
        "HHLL tRAS graphene: 374 88 130 332 333 1 0 331 7"
        " | 20000 17768 | 20000 15081 | 20000 5927 | 20000 5726",
        "HHLL tRAS para: 374 88 128 334 347 1 12 322 7"
        " | 20000 18206 | 20000 15604 | 20000 5932 | 20000 5716",
        "HHLL tRAS trr: 374 88 130 332 458 1 125 331 7"
        " | 20000 19276 | 20000 15081 | 20000 5927 | 20000 5726",
        "HHLL tRAS graphene8: 374 88 129 333 347 1 12 329 7"
        " | 20000 19128 | 20000 14744 | 20000 6849 | 20000 5721",
        "HHLL 636ns none: 373 88 213 248 248 1 0 67 2"
        " | 20000 18061 | 20000 13931 | 20000 5549 | 20000 5604",
        "HHLL 636ns graphene: 373 88 213 248 248 1 0 67 2"
        " | 20000 18061 | 20000 13931 | 20000 5549 | 20000 5604",
        "HHLL 636ns para: 373 88 209 252 260 1 8 64 2"
        " | 20000 18356 | 20000 14591 | 20000 5554 | 20000 5611",
        "HHLL 636ns trr: 373 88 213 248 375 1 127 71 2"
        " | 20000 19548 | 20000 13931 | 20000 5549 | 20000 5604",
        "HHLL 636ns graphene8: 373 88 213 248 248 1 0 67 2"
        " | 20000 18061 | 20000 13931 | 20000 5549 | 20000 5604",
    };
    ASSERT_EQ(got.size(), std::size(expected));
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expected[i]);
}

} // namespace
} // namespace rp::sim
