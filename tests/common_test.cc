/**
 * @file
 * Unit tests for the common utility layer: time units, RNG streams,
 * statistics, and table rendering.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"

namespace rp {
namespace {

TEST(Units, LiteralsProducePicoseconds)
{
    EXPECT_EQ(1_ns, 1000);
    EXPECT_EQ(36_ns, 36000);
    EXPECT_EQ(1_us, 1000000);
    EXPECT_EQ(64_ms, Time(64) * 1000 * 1000 * 1000);
    EXPECT_EQ(Time(7.8_us), 7800000);
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(toNs(36_ns), 36.0);
    EXPECT_DOUBLE_EQ(toUs(7800_ns), 7.8);
    EXPECT_DOUBLE_EQ(toMs(30_ms), 30.0);
    EXPECT_DOUBLE_EQ(toSec(4_s), 4.0);
}

TEST(Units, FormatTimePicksHumanUnit)
{
    EXPECT_EQ(formatTime(36_ns), "36ns");
    EXPECT_EQ(formatTime(7800_ns), "7.8us");
    EXPECT_EQ(formatTime(70200_ns), "70.2us");
    EXPECT_EQ(formatTime(30_ms), "30ms");
    EXPECT_EQ(formatTime(500), "500ps");
    EXPECT_EQ(formatTime(2_s), "2s");
}

TEST(Rng, SplitMixAvalanche)
{
    // Single-bit input changes must flip about half the output bits.
    int total = 0;
    for (int bit = 0; bit < 64; ++bit) {
        const std::uint64_t a = splitmix64(0x1234);
        const std::uint64_t b = splitmix64(0x1234 ^ (1ULL << bit));
        total += __builtin_popcountll(a ^ b);
    }
    EXPECT_GT(total / 64, 20);
    EXPECT_LT(total / 64, 44);
}

TEST(Rng, HashIsDeterministic)
{
    EXPECT_EQ(hashU64(1, 2, 3), hashU64(1, 2, 3));
    EXPECT_NE(hashU64(1, 2, 3), hashU64(1, 2, 4));
    EXPECT_NE(hashU64(1, 2, 3), hashU64(1, 3, 2));
}

static_assert(hashFinish(hashPrefix(1, 2, 3), 4) == hashU64(1, 2, 3, 4));

TEST(Rng, HashPrefixThenFinishIsHashU64)
{
    // The row loops hash (seed, bank, row, bit) as hashFinish(prefix,
    // bit); banks and rows are ints cast with std::uint64_t(int), so
    // negative ones sign-extend.
    const std::uint64_t seeds[] = {0, 1, 7, 0x9e3779b97f4a7c15ULL,
                                   UINT64_MAX};
    const std::uint64_t banks[] = {0, 1, 15, std::uint64_t(-1),
                                   std::uint64_t(INT32_MIN), UINT64_MAX};
    const std::uint64_t rows[] = {0, 64, 65535, std::uint64_t(-3),
                                  std::uint64_t(INT32_MAX), UINT64_MAX};
    const std::uint64_t bits[] = {0, 1, 63, 64, 65535, UINT64_MAX};
    int checked = 0;
    for (std::uint64_t seed : seeds)
        for (std::uint64_t bank : banks)
            for (std::uint64_t row : rows) {
                const std::uint64_t prefix = hashPrefix(seed, bank, row);
                for (std::uint64_t bit : bits) {
                    ASSERT_EQ(hashFinish(prefix, bit),
                              hashU64(seed, bank, row, bit))
                        << seed << " " << bank << " " << row << " " << bit;
                    ++checked;
                }
            }
    EXPECT_EQ(checked, 5 * 6 * 6 * 6);
}

TEST(Rng, HashRngStreamsAreIndependent)
{
    HashRng rng(42);
    EXPECT_EQ(rng.uniform(7), rng.uniform(7));
    EXPECT_NE(rng.uniform(7), rng.uniform(8));
    EXPECT_GE(rng.uniform(7), 0.0);
    EXPECT_LT(rng.uniform(7), 1.0);
}

TEST(Rng, HashRngUniformMoments)
{
    HashRng rng(9);
    double sum = 0.0, sumsq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform(std::uint64_t(i));
        sum += u;
        sumsq += u * u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
    EXPECT_NEAR(sumsq / n - 0.25, 1.0 / 12.0, 0.01);
}

TEST(Rng, HashRngNormalMoments)
{
    HashRng rng(5);
    double sum = 0.0, sumsq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double z = rng.normal(std::uint64_t(i) * 3);
        sum += z;
        sumsq += z * z;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(Rng, XoshiroSequenceIsReproducible)
{
    Rng a(123), b(123), c(124);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(123);
    for (int i = 0; i < 100; ++i)
        differs = differs || (a2.next() != c.next());
    EXPECT_TRUE(differs);
}

TEST(Rng, RangeAndBelowBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.below(10);
        EXPECT_LT(v, 10u);
        const auto r = rng.range(-5, 5);
        EXPECT_GE(r, -5);
        EXPECT_LE(r, 5);
    }
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(Stats, OnlineStatsMatchesClosedForm)
{
    OnlineStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, EmptyOnlineStats)
{
    OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    // An empty series has no extrema: NaN (rendered as an empty
    // cell), never a fake 0 indistinguishable from a real zero.
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_TRUE(std::isnan(s.max()));
    s.add(-3.0);
    EXPECT_DOUBLE_EQ(s.min(), -3.0);
    EXPECT_DOUBLE_EQ(s.max(), -3.0);
}

TEST(Stats, BoxSummaryPaperQuartileConvention)
{
    // Paper footnote 2: Q1/Q3 are medians of the ordered halves.
    auto s = summarize({1, 2, 3, 4, 5, 6, 7, 8});
    EXPECT_DOUBLE_EQ(s.q1, 2.5);
    EXPECT_DOUBLE_EQ(s.median, 4.5);
    EXPECT_DOUBLE_EQ(s.q3, 6.5);
    EXPECT_DOUBLE_EQ(s.iqr(), 4.0);

    auto odd = summarize({1, 2, 3, 4, 5});
    EXPECT_DOUBLE_EQ(odd.median, 3.0);
    EXPECT_DOUBLE_EQ(odd.q1, 1.5);
    EXPECT_DOUBLE_EQ(odd.q3, 4.5);
}

TEST(Stats, BoxSummaryEdgeCases)
{
    EXPECT_EQ(summarize({}).count, 0u);
    auto one = summarize({42.0});
    EXPECT_DOUBLE_EQ(one.min, 42.0);
    EXPECT_DOUBLE_EQ(one.max, 42.0);
    EXPECT_DOUBLE_EQ(one.median, 42.0);
}

TEST(Stats, HistogramBinningAndOverflow)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-1.0);
    h.add(0.0);
    h.add(5.5);
    h.add(9.999);
    h.add(10.0);
    h.add(123.0);
    EXPECT_DOUBLE_EQ(h.underflow(), 1.0);
    EXPECT_DOUBLE_EQ(h.overflow(), 2.0);
    EXPECT_DOUBLE_EQ(h.count(0), 1.0);
    EXPECT_DOUBLE_EQ(h.count(5), 1.0);
    EXPECT_DOUBLE_EQ(h.count(9), 1.0);
    EXPECT_DOUBLE_EQ(h.total(), 6.0);
    EXPECT_NEAR(h.fraction(0), 1.0 / 6.0, 1e-12);
    EXPECT_FALSE(h.render().empty());
}

TEST(Stats, HistogramRoutesNanToOverflow)
{
    // Regression: NaN fails both range guards and used to reach the
    // double -> size_t bin cast (undefined behavior).
    Histogram h(0.0, 10.0, 10);
    h.add(std::numeric_limits<double>::quiet_NaN());
    h.add(std::numeric_limits<double>::quiet_NaN(), 2.5);
    EXPECT_DOUBLE_EQ(h.overflow(), 3.5);
    EXPECT_DOUBLE_EQ(h.underflow(), 0.0);
    for (std::size_t i = 0; i < h.bins(); ++i)
        EXPECT_DOUBLE_EQ(h.count(i), 0.0);
    EXPECT_DOUBLE_EQ(h.total(), 3.5);
}

TEST(Stats, NormCdfInvertsProbit)
{
    for (double p : {0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999})
        EXPECT_NEAR(normCdf(probit(p)), p, 1e-7);
    EXPECT_NEAR(normCdf(0.0), 0.5, 1e-15);
    EXPECT_LT(normCdf(-10.0), 1e-20);
    EXPECT_GT(normCdf(-10.0), 0.0);
}

TEST(Stats, LinearSlopeRecoversLine)
{
    std::vector<double> x, y;
    for (int i = 0; i < 50; ++i) {
        x.push_back(double(i));
        y.push_back(3.0 - 1.02 * double(i));
    }
    EXPECT_NEAR(linearSlope(x, y), -1.02, 1e-9);
    EXPECT_EQ(linearSlope({1.0}, {2.0}), 0.0);
}

TEST(Stats, ProbitMatchesKnownQuantiles)
{
    EXPECT_NEAR(probit(0.5), 0.0, 1e-9);
    EXPECT_NEAR(probit(0.975), 1.959964, 1e-4);
    EXPECT_NEAR(probit(0.025), -1.959964, 1e-4);
    EXPECT_NEAR(probit(1e-5), -4.26489, 1e-3);
    EXPECT_NEAR(probit(0.8413447), 1.0, 1e-4);
    EXPECT_LT(probit(0.0), -30.0);
    EXPECT_GT(probit(1.0), 30.0);
}

TEST(Stats, ProbitIsMonotonic)
{
    double prev = -1e9;
    for (double p = 1e-8; p < 1.0; p *= 1.8) {
        const double z = probit(p);
        EXPECT_GT(z, prev);
        prev = z;
    }
}

TEST(Table, RendersAlignedColumns)
{
    Table t("Title");
    t.header({"a", "long-header", "c"});
    t.rowf("x", 1.5, 42);
    t.rowf("yyyy", "z");
    const std::string out = t.render();
    EXPECT_NE(out.find("== Title =="), std::string::npos);
    EXPECT_NE(out.find("long-header"), std::string::npos);
    EXPECT_NE(out.find("yyyy"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
}

TEST(Table, CellFormatting)
{
    EXPECT_EQ(Table::toCell(0.0), "0");
    EXPECT_EQ(Table::toCell(12.0), "12");
    EXPECT_EQ(Table::toCell((long long)-5), "-5");
    EXPECT_EQ(Table::toCell(1234567.0), "1.23e+06");
    // NaN ("no value", e.g. OnlineStats::min() of an empty series)
    // renders as an empty cell in table and CSV output.
    EXPECT_EQ(Table::toCell(std::numeric_limits<double>::quiet_NaN()),
              "");
}

} // namespace
} // namespace rp
