/**
 * @file
 * The word-draw kernel: the raw threshold draws of 64 consecutive
 * cells of a row.
 *
 * Every enumeration over the cells of a row (ThresholdStore::buildRow,
 * ThresholdStore::buildWordMasks and the word-mask full scan of
 * CellModel::evaluateInto) starts by reading each cell's hammer, press
 * and retention uniforms, HashRng(hashU64(seed, bank, row, bit))
 * .uniform(TAG_*), and comparing them with a cutoff.  drawWord
 * computes the 53-bit integers behind those uniforms for one 64-bit
 * data word at a time:
 *
 *     uniform(tag) == draw * 2^-53            (exactly)
 *     uniform(tag) >= u  <=>  draw >= drawThreshold(u)
 *
 * so the loops compare integers and convert a draw to a double only
 * for the few cells that pass.
 *
 * The kernel is integer-only and is compiled from one loop for AVX2,
 * which the compiler vectorizes, and for the baseline target; drawWord
 * calls the first variant the host CPU supports, chosen once per
 * process.  Every variant returns the same integers, and no
 * floating-point operation is compiled under a widened target (where
 * FMA contraction could change a double).
 */

#ifndef ROWPRESS_DEVICE_DRAW_WORD_H
#define ROWPRESS_DEVICE_DRAW_WORD_H

#include <cmath>
#include <cstdint>
#include <vector>

namespace rp::device {

/** 2^53: one past the largest draw; uniform == draw / kDrawOne. */
constexpr std::uint64_t kDrawOne = std::uint64_t(1) << 53;

/**
 * The raw draws of cells first_bit .. first_bit + 63 of one row:
 * element i of each array is the 53-bit integer behind that cell's
 * uniform(TAG_UH / TAG_UP / TAG_RET).
 */
struct WordDraws
{
    std::uint64_t hammer[64];
    std::uint64_t press[64];
    std::uint64_t retention[64];
};

/**
 * Fill @p out with the draws of the 64 cells from @p first_bit on, for
 * the row whose hash prefix is @p prefix (hashPrefix(seed, bank, row)).
 * Cells past the end of a row are drawn too; callers ignore them.
 */
void drawWord(std::uint64_t prefix, std::uint64_t first_bit,
              WordDraws &out);

/** The uniform a draw stands for: exactly HashRng::uniform's value. */
inline double
drawUniform(std::uint64_t draw)
{
    return double(draw) * 0x1.0p-53;
}

/**
 * The smallest draw d with drawUniform(d) >= @p u: ceil(u * 2^53),
 * which is exact because scaling by a power of two is, clamped to
 * [0, kDrawOne].  So `drawUniform(d) >= u` is `d >= drawThreshold(u)`
 * for every draw, and a NaN @p u, which no uniform reaches, gives
 * kDrawOne, which no draw reaches.
 */
inline std::uint64_t
drawThreshold(double u)
{
    if (!(u > 0.0))
        return u <= 0.0 ? 0 : kDrawOne;
    if (u >= 1.0)
        return kDrawOne;
    return std::uint64_t(std::ceil(u * 0x1.0p53));
}

/** One compiled variant of the kernel. */
struct DrawWordVariant
{
    const char *name;
    void (*fn)(std::uint64_t prefix, std::uint64_t first_bit,
               WordDraws &out);
};

/**
 * The compiled variants the host CPU can run, fastest first.  drawWord
 * dispatches to the first; tests run every one against HashRng.
 */
const std::vector<DrawWordVariant> &drawWordVariants();

} // namespace rp::device

#endif // ROWPRESS_DEVICE_DRAW_WORD_H
