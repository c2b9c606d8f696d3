#include "device/draw_word.h"

#include "common/rng.h"
#include "device/cell_tags.h"

namespace rp::device {

namespace {

/**
 * The kernel body: for each cell, the key hashFinish(prefix, bit) and
 * then HashRng::uniform's hash of each tag, shifted to the 53 bits
 * toUnitDouble keeps.  Integer operations only: the variants compile
 * this under widened targets, where the compiler vectorizes the loop.
 */
inline __attribute__((always_inline)) void
drawWordBody(std::uint64_t prefix, std::uint64_t first_bit,
             WordDraws &out)
{
    constexpr std::uint64_t kTagH = splitmix64(celltags::TAG_UH);
    constexpr std::uint64_t kTagP = splitmix64(celltags::TAG_UP);
    constexpr std::uint64_t kTagR = splitmix64(celltags::TAG_RET);
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t key =
            hashFinish(prefix, first_bit + std::uint64_t(i));
        out.hammer[i] = splitmix64(key ^ kTagH) >> 11;
        out.press[i] = splitmix64(key ^ kTagP) >> 11;
        out.retention[i] = splitmix64(key ^ kTagR) >> 11;
    }
}

void
drawWordScalar(std::uint64_t prefix, std::uint64_t first_bit,
               WordDraws &out)
{
    drawWordBody(prefix, first_bit, out);
}

#if defined(__x86_64__) || defined(__i386__)

__attribute__((target("avx2"))) void
drawWordAvx2(std::uint64_t prefix, std::uint64_t first_bit,
             WordDraws &out)
{
    drawWordBody(prefix, first_bit, out);
}

#endif

std::vector<DrawWordVariant>
supportedVariants()
{
    std::vector<DrawWordVariant> out;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
        out.push_back({"avx2", drawWordAvx2});
#endif
    out.push_back({"scalar", drawWordScalar});
    return out;
}

} // namespace

const std::vector<DrawWordVariant> &
drawWordVariants()
{
    static const std::vector<DrawWordVariant> variants =
        supportedVariants();
    return variants;
}

// A pointer chosen once by __builtin_cpu_supports, not target_clones:
// target_clones dispatches through an ifunc, which segfaults at
// -fsanitize=thread startup.
void
drawWord(std::uint64_t prefix, std::uint64_t first_bit, WordDraws &out)
{
    static const auto fn = drawWordVariants().front().fn;
    fn(prefix, first_bit, out);
}

} // namespace rp::device
