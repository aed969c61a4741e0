/**
 * @file
 * Shared-cache section for profiling-run observations.
 *
 * observeRun() is a pure function of (module, exec config, profile
 * options): the raw observations of a profiled run carry no campaign
 * state (merging them is where the statefulness lives), so each one
 * can be memoized like a static result.  In service mode the
 * profiling campaign is the dominant *uncached* cost of a warm
 * request, so caching observations is what lets a repeated
 * (module, corpus) request skip the interpreter entirely.
 *
 * Entries live in the shared cross-request cache's
 * MemoSection<RunObservations> (service/shared_cache.h), keyed on
 * (module fingerprint, run-configuration fingerprint):
 * dual-fingerprint verified, LRU-evicted under the global byte
 * budget, dropped wholesale on analysis::resetAndersenCache().
 */

#pragma once

#include <memory>

#include "ir/module.h"
#include "profile/profiler.h"

namespace oha::prof {

/** Approximate heap footprint of one run's observations (byte-budget
 *  accounting in the shared cache). */
std::size_t byteSizeEstimate(const RunObservations &observations);

/**
 * Memoized observeRun.  Keyed on (module fingerprint, exec-config
 * fingerprint, callContexts); ProfileOptions::threads is irrelevant
 * to the observations and deliberately excluded from the key.
 * Results are identical to a fresh ProfilingCampaign::observeRun —
 * a cached observation merges byte-identically.
 */
std::shared_ptr<const RunObservations>
observeRunMemo(const std::shared_ptr<const ir::Module> &module,
               const ProfileOptions &options,
               const exec::ExecConfig &config);

} // namespace oha::prof
