/**
 * @file
 * Validated environment-variable parsing for size/count knobs.
 *
 * Every tunable the pipeline reads from the environment —
 * OHA_THREADS, OHA_CACHE_BUDGET_MB, OHA_SNAPSHOT_INTERVAL — goes
 * through this one helper with a single contract: garbage never
 * crashes or silently misconfigures (warn + default), out-of-range
 * values are clamped with a warning, and a well-formed value is
 * honored exactly.
 * OHA_THREADS layers a process-wide cache on top (its steady-state
 * callers must never touch getenv; see refreshConfiguredThreads() in
 * thread_pool.h) but the parse itself is this helper's.
 */

#pragma once

#include <cerrno>
#include <cstdlib>

#include "support/common.h"

namespace oha::support {

/**
 * Clamp @p value to [@p minValue, @p maxValue], warning when the
 * clamp engages.  This is THE range contract for every count/size
 * knob: envSizeBytes() routes parsed environment values through it,
 * and the thread-count paths (support::configuredThreads explicit
 * requests, ThreadPool's constructor) use it directly — one
 * validate/warn/clamp implementation, no per-caller copies.
 * @p origin names the knob in the warning ("OHA_THREADS",
 * "requested", "ThreadPool").
 */
inline std::size_t
clampCount(const char *origin, std::size_t value, std::size_t minValue,
           std::size_t maxValue)
{
    OHA_ASSERT(minValue <= maxValue);
    if (value > maxValue) {
        OHA_WARN("clamping %s value %zu to maximum %zu", origin, value,
                 maxValue);
        return maxValue;
    }
    if (value < minValue) {
        OHA_WARN("clamping %s value %zu to minimum %zu", origin, value,
                 minValue);
        return minValue;
    }
    return value;
}

/**
 * Parse environment variable @p name as a non-negative integer scaled
 * by @p unit (bytes per unit; 1 for plain counts), clamped to
 * [@p minValue, @p maxValue].
 *
 *  - unset            -> @p defaultValue, silently;
 *  - malformed (empty, trailing junk, not a number) -> @p defaultValue
 *    with a warning;
 *  - below/above the clamp range -> the nearest bound with a warning.
 *
 * The environment is re-read on every call (callers are cold paths:
 * once per capture / replay / cache construction), so tests may
 * setenv() between pipeline invocations without a refresh hook.
 * @p defaultValue, @p minValue and @p maxValue are post-scaling
 * byte/count values; the clamp is applied after the unit multiply so
 * an overflowing product also lands on @p maxValue.
 */
inline std::size_t
envSizeBytes(const char *name, std::size_t defaultValue,
             std::size_t minValue, std::size_t maxValue,
             std::size_t unit = 1)
{
    OHA_ASSERT(minValue <= maxValue && unit > 0);
    const char *env = std::getenv(name);
    if (!env)
        return defaultValue;
    // strtoull tolerates leading whitespace and wraps negatives;
    // require a plain digit string so "-3" and " 5" count as
    // malformed rather than silently becoming huge/valid.
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed =
        (env[0] >= '0' && env[0] <= '9') ? std::strtoull(env, &end, 10)
                                         : 0;
    if (end == env || !end || *end != '\0') {
        OHA_WARN("ignoring malformed %s value '%s' (using default %zu)",
                 name, env, defaultValue);
        return defaultValue;
    }
    // A value too large for unsigned long long saturates strtoull at
    // ULLONG_MAX with ERANGE; report the original text instead of the
    // wrapped/saturated number and land on the maximum.
    if (errno == ERANGE) {
        OHA_WARN("saturating overflowing %s value '%s' to maximum %zu",
                 name, env, maxValue);
        return maxValue;
    }
    // Overflow-safe scale: saturate instead of wrapping, then apply
    // the shared range contract.
    if (parsed > static_cast<unsigned long long>(maxValue) / unit) {
        OHA_WARN("clamping %s value %llu to maximum %zu", name, parsed,
                 maxValue);
        return maxValue;
    }
    return clampCount(name, static_cast<std::size_t>(parsed) * unit,
                      minValue, maxValue);
}

} // namespace oha::support
