/**
 * @file
 * Value fingerprints, the cache keys of service/shared_cache.h: two
 * independent 64-bit hashes of a stream of field values — never of
 * pointers or raw struct bytes — so equal values built independently,
 * in this process or the next, hash equal.  The primary is FNV-1a-64
 * (also the durable file checksum); the secondary is a multiply-add
 * polynomial with a splitmix64 finalizer.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

namespace oha::support {

/** FNV-1a-64's offset basis: the hash of no bytes. */
constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ull;

/** FNV-1a-64 over @p len bytes, continuing from @p seed. */
inline std::uint64_t
fnv1a64(const void *data, std::size_t len, std::uint64_t seed = kFnv1a64Basis)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

/** Two independent 64-bit hashes of one value. */
struct Fingerprint
{
    std::uint64_t primary = 0;
    std::uint64_t secondary = 0;

    bool operator==(const Fingerprint &other) const = default;
};

/** Streaming hasher producing a Fingerprint. */
class FingerprintHasher
{
  public:
    /**
     * Feed each of @p values in order: an integer, bool or enum as 8
     * little-endian bytes; a string as its length, then its bytes; a
     * pair as its two members; any other range as its length, then
     * its elements.
     */
    template <typename... Values>
    FingerprintHasher &
    add(const Values &...values)
    {
        (addOne(values), ...);
        return *this;
    }

    /** The fingerprint of everything fed so far. */
    Fingerprint
    finish() const
    {
        std::uint64_t poly = poly_;
        poly ^= poly >> 30;
        poly *= 0xbf58476d1ce4e5b9ULL;
        poly ^= poly >> 27;
        poly *= 0x94d049bb133111ebULL;
        poly ^= poly >> 31;
        return {fnv_, poly};
    }

  private:
    template <typename T>
    void
    addOne(const T &value)
    {
        if constexpr (requires { value.first; value.second; }) {
            add(value.first, value.second);
        } else if constexpr (requires { value.begin(); }) {
            addOne(value.size());
            if constexpr (std::is_same_v<T, std::string>) {
                feed(reinterpret_cast<const std::uint8_t *>(value.data()),
                     value.size());
            } else {
                for (const auto &element : value)
                    addOne(element);
            }
        } else {
            const auto word = static_cast<std::uint64_t>(value);
            std::uint8_t bytes[8];
            for (unsigned i = 0; i < 8; ++i)
                bytes[i] = static_cast<std::uint8_t>(word >> (8 * i));
            feed(bytes, sizeof bytes);
        }
    }

    void
    feed(const std::uint8_t *bytes, std::size_t len)
    {
        fnv_ = fnv1a64(bytes, len, fnv_);
        for (std::size_t i = 0; i < len; ++i)
            poly_ = poly_ * 0x9e3779b97f4a7c15ULL + bytes[i] + 1;
    }

    std::uint64_t fnv_ = kFnv1a64Basis;
    std::uint64_t poly_ = 0x9e3779b97f4a7c15ULL;
};

} // namespace oha::support
