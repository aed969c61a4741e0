/**
 * @file
 * Shared-cache section for profiling-run observations.
 *
 * observeRun() is a pure function of (module, exec config, profile
 * options): the raw observations of a profiled run carry no campaign
 * state (merging them is where the statefulness lives).  That makes
 * each observation exactly as memoizable as a trace capture — and in
 * service mode the profiling campaign is the dominant *uncached* cost
 * of a warm request, so caching observations is what lets a repeated
 * (module, corpus) request skip the interpreter entirely.
 *
 * Entries live in the process-wide shared cross-request cache
 * (service/shared_cache.h): dual-fingerprint verified, LRU-evicted
 * under the global byte budget, dropped wholesale on
 * analysis::resetAndersenCache().
 */

#pragma once

#include <memory>
#include <vector>

#include "ir/module.h"
#include "profile/profiler.h"
#include "service/shared_cache.h"

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

/** Snapshot-portable view of one cached observation (both
 *  fingerprints of each key component + the plain-data result).  Used
 *  by the warm-start snapshot (service/snapshot.cc); restored entries
 *  are admitted without a module object — a request brings its own
 *  module, the entry only needs to verify fingerprints. */
struct ObservationSectionEntry
{
    service::Fingerprint moduleFp;
    service::Fingerprint observationFp;
    std::shared_ptr<const RunObservations> observations;
};

/** Copy the cached observations out for snapshotting. */
std::vector<ObservationSectionEntry> exportObservationSection();

/** Re-admit a restored observation (warm start).  First insert wins;
 *  the entry joins the LRU spine with its byte estimate charged. */
void admitObservationSectionEntry(const ObservationSectionEntry &entry);

} // namespace oha::prof
