/**
 * @file
 * The word-draw kernel (device/draw_word.h): every compiled variant the
 * host supports must return exactly the draws behind HashRng's
 * uniforms, and drawThreshold must turn every double cutoff into the
 * integer cutoff that decides each draw the same way.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "device/cell_tags.h"
#include "device/draw_word.h"

namespace rp {
namespace {

using device::drawThreshold;
using device::drawUniform;
using device::kDrawOne;
using device::WordDraws;

/** Whether @p d equals HashRng's draws for the 64 cells at @p first. */
::testing::AssertionResult
matchesHashRng(const WordDraws &d, std::uint64_t seed, int bank, int row,
               std::uint64_t first)
{
    for (int i = 0; i < 64; ++i) {
        const HashRng cell(hashU64(seed, std::uint64_t(bank),
                                   std::uint64_t(row), first + i));
        const std::uint64_t draws[3] = {d.hammer[i], d.press[i],
                                        d.retention[i]};
        const std::uint64_t tags[3] = {device::celltags::TAG_UH,
                                       device::celltags::TAG_UP,
                                       device::celltags::TAG_RET};
        for (int m = 0; m < 3; ++m) {
            if (draws[m] >= kDrawOne ||
                drawUniform(draws[m]) != cell.uniform(tags[m]))
                return ::testing::AssertionFailure()
                       << "cell " << first + i << " tag " << m << ": draw "
                       << draws[m];
        }
    }
    return ::testing::AssertionSuccess();
}

// First in the file, so that the worker threads race to resolve the
// dispatched variant (the TSan build checks that resolution).
TEST(DrawWord, ConcurrentCallersGetTheSameDraws)
{
    constexpr int kThreads = 4;
    std::vector<int> ok(kThreads, 0);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([t, &ok] {
            const std::uint64_t prefix = hashPrefix(3, 1, std::uint64_t(t));
            WordDraws d{};
            bool all = true;
            for (std::uint64_t first = 0; first < 4096; first += 64) {
                device::drawWord(prefix, first, d);
                all = all && matchesHashRng(d, 3, 1, t, first);
            }
            ok[std::size_t(t)] = all;
        });
    }
    for (auto &w : workers)
        w.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_TRUE(ok[std::size_t(t)]) << "thread " << t;
}

TEST(DrawWord, EveryVariantMatchesHashRng)
{
    const auto &variants = device::drawWordVariants();
    ASSERT_FALSE(variants.empty());
    EXPECT_STREQ(variants.back().name, "scalar");
    for (const auto &v : variants) {
        SCOPED_TRACE(v.name);
        std::cout << "[ variant  ] " << v.name << "\n";
        WordDraws d{};
        for (std::uint64_t seed : {0ULL, 1ULL, 7ULL, 0xDEADBEEFULL})
            for (int bank : {0, 1, 7})
                for (int row : {0, 1, 65535, 123457})
                    for (std::uint64_t first :
                         {0ULL, 64ULL, 960ULL, 65472ULL, 3ULL,
                          (1ULL << 40) + 5}) {
                        v.fn(hashPrefix(seed, std::uint64_t(bank),
                                        std::uint64_t(row)),
                             first, d);
                        EXPECT_TRUE(matchesHashRng(d, seed, bank, row,
                                                   first));
                    }
    }
}

TEST(DrawWord, DispatchesToTheFirstVariant)
{
    const auto &variants = device::drawWordVariants();
    const std::uint64_t prefix = hashPrefix(9, 2, 77);
    WordDraws want{};
    WordDraws got{};
    variants.front().fn(prefix, 128, want);
    device::drawWord(prefix, 128, got);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(got.hammer[i], want.hammer[i]);
        EXPECT_EQ(got.press[i], want.press[i]);
        EXPECT_EQ(got.retention[i], want.retention[i]);
    }
}

TEST(DrawThreshold, AgreesWithTheDoubleCompare)
{
    // The cutoff T = drawThreshold(u) must decide draws T - 1, T and
    // T + 1 as `uniform >= u` does, at the edges of [0, 1), at exact
    // multiples of 2^-53 and at their neighbours (where ceil and floor
    // differ), and outside the range.
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    struct Case
    {
        double u;
        std::uint64_t want;
    };
    std::vector<Case> cases = {
        {0.0, 0},
        {-0.0, 0},
        {-0.25, 0},
        {tiny, 1},
        {0.5, kDrawOne / 2},
        {1.0 - 0x1.0p-53, kDrawOne - 1},
        {1.0, kDrawOne},
        {2.0, kDrawOne},
        {nan, kDrawOne},
    };
    std::vector<double> us;
    for (std::uint64_t k : std::initializer_list<std::uint64_t>{
             1, 3, 12345678901, kDrawOne / 2 - 1, kDrawOne / 2 + 1,
             kDrawOne - 2}) {
        const double u = double(k) * 0x1.0p-53;
        cases.push_back({u, k});
        us.push_back(std::nextafter(u, 0.0));
        us.push_back(std::nextafter(u, 1.0));
    }
    for (const Case &c : cases) {
        EXPECT_EQ(drawThreshold(c.u), c.want) << "u = " << c.u;
        us.push_back(c.u);
    }
    for (double u : us) {
        const std::uint64_t t = drawThreshold(u);
        EXPECT_LE(t, kDrawOne);
        for (std::uint64_t d : {t - 1, t, t + 1}) {
            if (d >= kDrawOne) // includes t - 1 wrapping below 0
                continue;
            // The uniform HashRng would return for this draw.
            const double uniform = toUnitDouble(d << 11);
            EXPECT_EQ(drawUniform(d), uniform);
            EXPECT_EQ(d >= t, uniform >= u)
                << std::hexfloat << "u = " << u << ", draw " << d
                << ", T " << t;
        }
    }
}

} // namespace
} // namespace rp
