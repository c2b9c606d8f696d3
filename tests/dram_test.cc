/**
 * @file
 * Unit and property tests for the DRAM substrate: timing parameter
 * sets, the timing-checked bank state machine, physical address
 * mapping, and in-DRAM row scrambling.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dram/address.h"
#include "dram/bank.h"
#include "dram/timing.h"

namespace rp::dram {
namespace {

using namespace rp::literals;

TEST(Timing, PresetsAreConsistent)
{
    for (const auto &t : {ddr4_2400(), ddr4_3200(), benderTiming()}) {
        EXPECT_GT(t.tRAS, 0) << t.name;
        EXPECT_GT(t.tRP, 0) << t.name;
        EXPECT_EQ(t.tRC(), t.tRAS + t.tRP) << t.name;
        EXPECT_EQ(t.tREFI, 7800_ns) << t.name;
        EXPECT_EQ(t.tREFW, 64_ms) << t.name;
        EXPECT_EQ(t.maxRowOpenNoPostpone(), 7800_ns) << t.name;
        EXPECT_EQ(t.maxRowOpenPostponed(), 70200_ns) << t.name;
        EXPECT_LT(t.tRRDS, t.tFAW) << t.name;
    }
}

TEST(Timing, BenderUsesPaperMinimums)
{
    auto t = benderTiming();
    // Footnote 3: 36 ns minimum tAggON, 1.5 ns command granularity.
    EXPECT_EQ(t.tRAS, 36_ns);
    EXPECT_EQ(t.tCK, Time(1500));
}

TEST(Bank, ActRequiresClosedBank)
{
    auto timing = benderTiming();
    Bank bank(timing);
    EXPECT_FALSE(bank.isOpen());
    bank.act(10, 0);
    EXPECT_TRUE(bank.isOpen());
    EXPECT_EQ(bank.openRow(), 10);
    EXPECT_EQ(bank.openedAt(), 0);
    EXPECT_DEATH(bank.act(11, 1000), "ACT to open bank");
}

TEST(Bank, PreEnforcesTras)
{
    auto timing = benderTiming();
    Bank bank(timing);
    bank.act(1, 0);
    EXPECT_EQ(bank.earliest(Command::PRE), timing.tRAS);
    EXPECT_DEATH(bank.pre(timing.tRAS - 1), "violates");
}

TEST(Bank, OpenIntervalReportsOnTime)
{
    auto timing = benderTiming();
    Bank bank(timing);
    bank.act(7, 1000);
    auto interval = bank.pre(1000 + 7800_ns);
    EXPECT_EQ(interval.row, 7);
    EXPECT_EQ(interval.onTime(), 7800_ns);
    EXPECT_FALSE(bank.isOpen());
}

TEST(Bank, ActAfterPreWaitsTrp)
{
    auto timing = benderTiming();
    Bank bank(timing);
    bank.act(1, 0);
    bank.pre(timing.tRAS);
    EXPECT_EQ(bank.earliest(Command::ACT), timing.tRAS + timing.tRP);
    EXPECT_DEATH(bank.act(2, timing.tRAS + timing.tRP - 1), "violates");
}

TEST(Bank, ReadRespectsTrcdAndExtendsPre)
{
    auto timing = benderTiming();
    Bank bank(timing);
    bank.act(1, 0);
    EXPECT_EQ(bank.earliest(Command::RD), timing.tRCD);
    const Time ready = bank.read(timing.tRCD);
    EXPECT_EQ(ready, timing.tRCD + timing.tCL + timing.tBL);
    // A late read pushes the earliest PRE to read + tRTP.
    const Time late_rd = timing.tRAS + 10_ns;
    bank.read(late_rd);
    EXPECT_GE(bank.earliest(Command::PRE), late_rd + timing.tRTP);
}

TEST(Bank, WriteRecoveryBlocksPre)
{
    auto timing = benderTiming();
    Bank bank(timing);
    bank.act(1, 0);
    const Time done = bank.write(timing.tRCD);
    EXPECT_EQ(done,
              timing.tRCD + timing.tCWL + timing.tBL + timing.tWR);
    EXPECT_GE(bank.earliest(Command::PRE), done);
}

TEST(Bank, RefBlocksActivationForTrfc)
{
    auto timing = benderTiming();
    Bank bank(timing);
    bank.ref(0);
    EXPECT_EQ(bank.earliest(Command::ACT), timing.tRFC);
    EXPECT_DEATH(bank.act(1, timing.tRFC - 1), "violates");
}

/** Property: a random legal command sequence never trips a check. */
TEST(Bank, RandomLegalSequencesAreAccepted)
{
    auto timing = ddr4_3200();
    Rng rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        Bank bank(timing);
        Time now = 0;
        for (int step = 0; step < 200; ++step) {
            if (bank.isOpen()) {
                switch (rng.below(3)) {
                  case 0:
                    now = std::max(now, bank.earliest(Command::RD));
                    bank.read(now);
                    break;
                  case 1:
                    now = std::max(now, bank.earliest(Command::WR));
                    bank.write(now);
                    break;
                  default:
                    now = std::max(now, bank.earliest(Command::PRE));
                    bank.pre(now);
                    break;
                }
            } else {
                now = std::max(now, bank.earliest(Command::ACT));
                if (rng.below(8) == 0)
                    bank.ref(now);
                else
                    bank.act(int(rng.below(1000)), now);
            }
            now += Time(rng.below(50)) * 1_ns;
        }
    }
}

TEST(Command, NamesAreStable)
{
    EXPECT_STREQ(commandName(Command::ACT), "ACT");
    EXPECT_STREQ(commandName(Command::PRE), "PRE");
    EXPECT_STREQ(commandName(Command::REF), "REF");
    EXPECT_STREQ(commandName(Command::NOP), "NOP");
}

TEST(Organization, CapacityMath)
{
    Organization org;
    org.ranks = 2;
    EXPECT_EQ(org.banksPerRank(), 16);
    EXPECT_EQ(org.totalBanks(), 32);
    EXPECT_EQ(org.rowBytes(), 8192);
    EXPECT_EQ(org.capacityBytes(),
              std::int64_t(32) * 65536 * 8192);
}

struct MapperParam
{
    int ranks, bgs, banks, rows, cols;
    bool xorHash;
};

class MapperRoundTrip : public ::testing::TestWithParam<MapperParam>
{
};

TEST_P(MapperRoundTrip, EncodeDecodeIsIdentity)
{
    const auto p = GetParam();
    Organization org;
    org.ranks = p.ranks;
    org.bankGroups = p.bgs;
    org.banksPerGroup = p.banks;
    org.rows = p.rows;
    org.columns = p.cols;
    AddressMapper mapper(org, p.xorHash);

    Rng rng(17);
    for (int i = 0; i < 500; ++i) {
        Address a;
        a.rank = int(rng.below(std::uint64_t(p.ranks)));
        a.bankGroup = int(rng.below(std::uint64_t(p.bgs)));
        a.bank = int(rng.below(std::uint64_t(p.banks)));
        a.row = int(rng.below(std::uint64_t(p.rows)));
        a.column = int(rng.below(std::uint64_t(p.cols)));
        const auto phys = mapper.encode(a);
        const auto back = mapper.decode(phys);
        EXPECT_EQ(back.rank, a.rank);
        EXPECT_EQ(back.bankGroup, a.bankGroup);
        EXPECT_EQ(back.bank, a.bank);
        EXPECT_EQ(back.row, a.row);
        EXPECT_EQ(back.column, a.column);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Orgs, MapperRoundTrip,
    ::testing::Values(MapperParam{1, 4, 4, 65536, 128, true},
                      MapperParam{2, 4, 4, 65536, 128, true},
                      MapperParam{2, 4, 4, 65536, 128, false},
                      MapperParam{1, 2, 2, 4096, 64, true},
                      MapperParam{4, 4, 4, 16384, 128, false}));

TEST(Mapper, AdjacentRowsShareBank)
{
    Organization org;
    AddressMapper mapper(org, true);
    Address a;
    a.row = 1000;
    a.bankGroup = 2;
    Address b = a;
    b.row = 1001;
    // Same bank coordinates must map to the same physical bank even
    // with the XOR fold (construct both through encode/decode).
    auto da = mapper.decode(mapper.encode(a));
    auto db = mapper.decode(mapper.encode(b));
    EXPECT_TRUE(da.sameBank(a));
    EXPECT_TRUE(db.sameBank(b));
}

class ScramblerTest
    : public ::testing::TestWithParam<RowScrambler::Scheme>
{
};

TEST_P(ScramblerTest, IsAnInvolutionAndAPermutation)
{
    RowScrambler s(GetParam(), 1024);
    std::vector<bool> seen(1024, false);
    for (int r = 0; r < 1024; ++r) {
        const int phys = s.logicalToPhysical(r);
        ASSERT_GE(phys, 0);
        ASSERT_LT(phys, 1024);
        EXPECT_FALSE(seen[std::size_t(phys)]);
        seen[std::size_t(phys)] = true;
        EXPECT_EQ(s.physicalToLogical(phys), r);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ScramblerTest,
    ::testing::Values(RowScrambler::Scheme::None,
                      RowScrambler::Scheme::FoldedPair));

TEST(Scrambler, FoldedPairSwapsMiddle)
{
    RowScrambler s(RowScrambler::Scheme::FoldedPair, 16);
    EXPECT_EQ(s.logicalToPhysical(0), 0);
    EXPECT_EQ(s.logicalToPhysical(1), 2);
    EXPECT_EQ(s.logicalToPhysical(2), 1);
    EXPECT_EQ(s.logicalToPhysical(3), 3);
    EXPECT_EQ(s.logicalToPhysical(5), 6);
}

} // namespace
} // namespace rp::dram
