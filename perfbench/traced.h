/**
 * @file
 * The traced run: an in-memory span recorder and a serial sweep that
 * drives one program through each layer's public calls in the
 * pipeline's phase order, one span per call.
 *
 * A layer's self time is its span minus its child spans, minus the
 * span's baseline: a dynamic tool's baseline is the same trace's
 * replay with a no-op tool and an empty plan (pure decode), the
 * invariant checker's is the optimistic replay without it, and the
 * static race detector's is the Andersen solve it repeats internally
 * (timed just before, with identical options).
 *
 * The sweep is not the pipeline: it runs serially, uses no cache, and
 * skips lock-elision calibration and adaptive recovery.  It reproduces
 * the pipeline's full-FastTrack race count and static slice sizes
 * exactly, which the benchmark checks on every traced op.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ops.h"

namespace perfbench {

/** One recorded span. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span, -1 for an op's root span. */
    std::int32_t parent = -1;
    std::uint32_t op = 0;
    /** Time subtracted from the span's self time (see file comment). */
    std::int64_t baselineNs = 0;

    std::int64_t durationNs() const { return endNs - startNs; }
};

/** Single-threaded span and counter recorder. */
class Tracer
{
  public:
    /** Open a span under the innermost open one; returns its index. */
    std::size_t open(const char *name, std::int64_t baselineNs = 0);
    /** Close span @p index (must be the innermost open span); returns
     *  its duration. */
    std::int64_t close(std::size_t index);

    void count(const std::string &name, std::uint64_t n)
    {
        counts_[name] += n;
    }

    /** Number the next op; its root span is named "op". */
    void setOp(std::uint32_t op) { op_ = op; }

    const std::vector<Span> &spans() const { return spans_; }
    const std::map<std::string, std::uint64_t> &counts() const
    {
        return counts_;
    }

    /** Summed self time per span name, in ms. */
    std::map<std::string, double> selfMs() const;
    /** Summed duration of the root "op" spans, in ms. */
    double opMs() const;
    /** Share of root-span time no child span covers. */
    double unattributedFrac() const;

    /** Write every span as one tab-separated line. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
    std::map<std::string, std::uint64_t> counts_;
    std::uint32_t op_ = 0;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, std::int64_t baselineNs = 0)
        : tracer_(tracer), index_(tracer.open(name, baselineNs))
    {
    }
    ~ScopedSpan() { close(); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Close early; returns the duration. */
    std::int64_t
    close()
    {
        if (!closed_) {
            durationNs_ = tracer_.close(index_);
            closed_ = true;
        }
        return durationNs_;
    }

  private:
    Tracer &tracer_;
    std::size_t index_;
    bool closed_ = false;
    std::int64_t durationNs_ = 0;
};

/** What the sweep computed that the pipeline reports too. */
struct TracedOutcome
{
    /** Distinct full-FastTrack race pairs over the testing corpus. */
    std::size_t racesObserved = 0;
    /** Mean sound / predicated static slice size over the endpoints. */
    double soundSliceSize = 0;
    double optSliceSize = 0;
};

/** Trace one op of @p request under a root "op" span. */
TracedOutcome tracedOp(Tracer &tracer, const Request &request);

} // namespace perfbench
