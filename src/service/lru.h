/**
 * @file
 * Byte-budgeted least-recently-used eviction engine.
 *
 * The shared analysis cache holds heterogeneous entries (points-to
 * results, whole static-race results, slice sets, profiling
 * observations) in per-type maps, but evicts across all of them
 * against one byte budget.  LruList is the kind-agnostic spine: each cached entry
 * registers a node carrying its byte estimate and an erase callback
 * that removes the entry from its owning map; eviction pops nodes
 * from the cold end and runs the callbacks.
 *
 * Not thread-safe — the owner (service::SharedCache) serializes all
 * access under its mutex.
 */

#pragma once

#include <cstddef>
#include <functional>
#include <list>

#include "support/common.h"

namespace oha::service {

/** Recency list + byte accounting over externally-owned entries. */
class LruList
{
  public:
    struct Node
    {
        std::size_t bytes = 0;
        /** Erases the owning-map entry.  Must not call back into the
         *  list (the list removes the node itself). */
        std::function<void()> erase;
    };

    using Handle = std::list<Node>::iterator;

    /** Register a new entry as most-recently-used. */
    Handle
    insert(std::size_t bytes, std::function<void()> erase)
    {
        nodes_.push_front(Node{bytes, std::move(erase)});
        bytes_ += bytes;
        return nodes_.begin();
    }

    /** Mark @p handle most-recently-used. */
    void
    touch(Handle handle)
    {
        nodes_.splice(nodes_.begin(), nodes_, handle);
    }

    /** Drop @p handle without running its erase callback (the owner
     *  is removing its own map entry). */
    void
    remove(Handle handle)
    {
        OHA_ASSERT(bytes_ >= handle->bytes);
        bytes_ -= handle->bytes;
        nodes_.erase(handle);
    }

    /**
     * Evict cold entries (running their erase callbacks) until the
     * tracked bytes fit @p budget.  Returns the number of evictions.
     * A single entry larger than the whole budget is evicted too —
     * oversized results are simply not retained.
     */
    std::size_t
    evictToFit(std::size_t budget)
    {
        std::size_t evicted = 0;
        while (bytes_ > budget && !nodes_.empty()) {
            Node victim = std::move(nodes_.back());
            nodes_.pop_back();
            OHA_ASSERT(bytes_ >= victim.bytes);
            bytes_ -= victim.bytes;
            if (victim.erase)
                victim.erase();
            ++evicted;
        }
        return evicted;
    }

    /** Drop every node without running erase callbacks (the owner is
     *  clearing all maps wholesale). */
    void
    clear()
    {
        nodes_.clear();
        bytes_ = 0;
    }

    std::size_t bytes() const { return bytes_; }
    std::size_t size() const { return nodes_.size(); }

  private:
    /** Front = most recently used; back = eviction candidate. */
    std::list<Node> nodes_;
    std::size_t bytes_ = 0;
};

} // namespace oha::service
