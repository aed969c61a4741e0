/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every source of randomness in the library (thread scheduling,
 * workload input generation) flows through Rng so that executions are
 * a pure function of their seed.  This is what makes the paper's
 * "roll back and re-execute" recovery exact: replaying with the same
 * seed reproduces the same interleaving.
 *
 * The implementation is splitmix64 for seeding plus xoshiro256**.
 */

#pragma once

#include <cstdint>

namespace oha {

/** Deterministic, seedable PRNG (xoshiro256**). */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds yield equal streams. */
    explicit Rng(std::uint64_t seed = 0) { reseed(seed); }

    /** Reset the generator to the stream identified by @p seed. */
    void
    reseed(std::uint64_t seed)
    {
        std::uint64_t x = seed;
        for (auto &word : state_)
            word = splitmix64(x);
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform value in [0, bound); bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform value in [lo, hi] inclusive. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
            below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Bernoulli draw: true with probability @p p. */
    bool
    chance(double p)
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    static std::uint64_t
    splitmix64(std::uint64_t &x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::uint64_t state_[4];
};

/**
 * `n % d` for a divisor fixed in advance, without a divide: Lemire's
 * fastmod with a 128-bit multiplier M = ceil(2^128 / d), so that
 * n mod d = hi64(lo128(M * n) * d).  Exact for every 64-bit n and
 * every d >= 1 (Lemire, Kaser and Kurz, "Faster Remainder by Direct
 * Computation", 2019).
 */
class FastMod
{
  public:
    /** Precompute the multiplier for @p divisor, which must be
     *  nonzero. */
    explicit FastMod(std::uint64_t divisor)
        : divisor_(divisor), multiplier_(~Wide{0} / divisor + 1)
    {
    }

    /** @p n modulo the divisor. */
    std::uint64_t
    operator()(std::uint64_t n) const
    {
        const Wide low = multiplier_ * n;
        // The top 64 of the 192-bit product low * divisor, summed from
        // its two 64-bit halves.
        const Wide bottom = (low & ~std::uint64_t{0}) * divisor_ >> 64;
        const Wide top = (low >> 64) * divisor_;
        return static_cast<std::uint64_t>((bottom + top) >> 64);
    }

  private:
    using Wide = unsigned __int128;

    std::uint64_t divisor_;
    Wide multiplier_;
};

} // namespace oha
