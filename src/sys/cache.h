/**
 * @file
 * Functional cache-presence model for the real-system demonstration.
 *
 * The demo only needs to know whether a load hits the cache hierarchy
 * (no DRAM traffic) or misses (DRAM access), and to honour
 * clflushopt's invalidate semantics.  Aggressor rows are read-only
 * after initialization, so flushed lines are clean and flushing
 * produces no write-back traffic.
 */

#ifndef ROWPRESS_SYS_CACHE_H
#define ROWPRESS_SYS_CACHE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rp::sys {

/**
 * Presence-set cache model with clflushopt support.  The resident
 * lines live in a flat open-addressing table (linear probing,
 * backward-shift deletion, at most half full), so the demo's per-access
 * load and flush calls never allocate.
 */
class CacheModel
{
  public:
    CacheModel() : slots_(std::size_t(1) << kInitialBits) {}

    /** Load a line; returns true on hit, inserts on miss. */
    bool
    load(std::uint64_t line_addr)
    {
        std::size_t i = home(line_addr);
        for (; slots_[i].used; i = next(i)) {
            if (slots_[i].line == line_addr)
                return true;
        }
        slots_[i] = {line_addr, true};
        if (++size_ * 2 > slots_.size())
            grow();
        return false;
    }

    /** clflushopt: drop the line (clean lines write nothing back). */
    void
    clflush(std::uint64_t line_addr)
    {
        std::size_t i = home(line_addr);
        while (slots_[i].used && slots_[i].line != line_addr)
            i = next(i);
        if (!slots_[i].used)
            return;
        // Pull later lines of the probe run into the hole unless their
        // home slot lies cyclically in (hole, j]: every resident line
        // stays reachable from its home without tombstones.
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t j = next(i); slots_[j].used; j = next(j)) {
            if (((j - home(slots_[j].line)) & mask) >= ((j - i) & mask)) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        slots_[i].used = false;
        --size_;
    }

    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), Slot{});
        size_ = 0;
    }

    std::size_t residentLines() const { return size_; }

  private:
    struct Slot
    {
        std::uint64_t line = 0;
        bool used = false;
    };

    static constexpr int kInitialBits = 6;

    /** Fibonacci hashing: the top bits of line * 2^64 / phi. */
    std::size_t
    home(std::uint64_t line) const
    {
        return std::size_t((line * 0x9E3779B97F4A7C15ull) >> (64 - bits_));
    }

    std::size_t
    next(std::size_t i) const
    {
        return (i + 1) & (slots_.size() - 1);
    }

    void
    grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        ++bits_;
        for (const Slot &s : old) {
            if (!s.used)
                continue;
            std::size_t i = home(s.line);
            while (slots_[i].used)
                i = next(i);
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    int bits_ = kInitialBits;
    std::size_t size_ = 0;
};

} // namespace rp::sys

#endif // ROWPRESS_SYS_CACHE_H
