/**
 * @file
 * Deterministic random number generation.
 *
 * Two flavours are provided:
 *  - Rng: a sequential xoshiro256** stream for experiment-level choices;
 *  - hash-based "counter" randomness (hashU64 / HashRng) used by the
 *    device model so that per-cell properties (thresholds, retention
 *    times, dominant disturbance side, ...) are pure functions of
 *    (seed, bank, row, column, property-tag).  This keeps the fault
 *    model stateless and reproducible: experiments may query billions
 *    of cells lazily without allocating per-cell storage.
 */

#ifndef ROWPRESS_COMMON_RNG_H
#define ROWPRESS_COMMON_RNG_H

#include <cmath>
#include <cstdint>

namespace rp {

/** SplitMix64 finalizer; good avalanche, used as the hash core. */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Combine up to five 64-bit words into one well-mixed word. */
constexpr std::uint64_t
hashU64(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0,
        std::uint64_t d = 0, std::uint64_t e = 0)
{
    std::uint64_t h = splitmix64(a);
    h = splitmix64(h ^ b);
    h = splitmix64(h ^ c);
    h = splitmix64(h ^ d);
    h = splitmix64(h ^ e);
    return h;
}

/**
 * The first three rounds of hashU64: loops that hash many values of
 * the fourth word under fixed (a, b, c), such as every bit of a row,
 * compute this once and finish each value with hashFinish.
 */
constexpr std::uint64_t
hashPrefix(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    return splitmix64(splitmix64(splitmix64(a) ^ b) ^ c);
}

/** hashFinish(hashPrefix(a, b, c), d) == hashU64(a, b, c, d). */
constexpr std::uint64_t
hashFinish(std::uint64_t prefix, std::uint64_t d)
{
    return splitmix64(splitmix64(prefix ^ d));
}

/** Map a 64-bit hash to a double uniform in [0, 1). */
constexpr double
toUnitDouble(std::uint64_t h)
{
    return double(h >> 11) * 0x1.0p-53;
}

/**
 * Counter-based generator: derive any number of independent uniform /
 * normal / lognormal variates from a fixed key.  Cheap enough to call
 * per cell per query.
 */
class HashRng
{
  public:
    explicit constexpr HashRng(std::uint64_t key) : key_(key) {}

    /** Uniform in [0,1); @p tag selects an independent stream. */
    constexpr double
    uniform(std::uint64_t tag) const
    {
        return toUnitDouble(splitmix64(key_ ^ splitmix64(tag)));
    }

    /** Standard normal via Box-Muller (uses tags tag and tag+1). */
    double
    normal(std::uint64_t tag) const
    {
        double u1 = uniform(tag);
        double u2 = uniform(tag + 0x9e37ULL);
        // Guard against log(0).
        if (u1 < 1e-300)
            u1 = 1e-300;
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(6.283185307179586 * u2);
    }

    /** Lognormal with the given log-space mean and sigma. */
    double
    lognormal(std::uint64_t tag, double mu_log, double sigma_log) const
    {
        return std::exp(mu_log + sigma_log * normal(tag));
    }

  private:
    std::uint64_t key_;
};

/** xoshiro256** sequential PRNG for experiment-level randomness. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed)
    {
        for (auto &word : s_) {
            seed = splitmix64(seed);
            word = seed;
        }
    }

    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform double in [0,1). */
    double uniform() { return toUnitDouble(next()); }

    /** Uniform integer in [0, n). */
    std::uint64_t
    below(std::uint64_t n)
    {
        return n ? next() % n : 0;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return lo + std::int64_t(below(std::uint64_t(hi - lo + 1)));
    }

    /** Standard normal variate. */
    double
    normal()
    {
        double u1 = uniform();
        double u2 = uniform();
        if (u1 < 1e-300)
            u1 = 1e-300;
        return std::sqrt(-2.0 * std::log(u1)) *
               std::cos(6.283185307179586 * u2);
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace rp

#endif // ROWPRESS_COMMON_RNG_H
