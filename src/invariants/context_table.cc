#include "invariants/context_table.h"

#include <algorithm>

namespace oha::inv {

std::uint64_t
contextHash(const CallContext &context)
{
    std::uint64_t h = 0x51ed270b0a1f39c1ULL;
    for (InstrId site : context) {
        h ^= site + 0x9e3779b97f4a7c15ULL;
        h ^= h >> 30;
        h *= 0xbf58476d1ce4e5b9ULL;
        h ^= h >> 27;
    }
    return h;
}

ContextTable::Id
ContextTable::find(const CallContext &chain) const
{
    Id id = kRoot;
    for (std::size_t i = 0; i < chain.size() && id != kNone; ++i)
        id = find(id, chain[i]);
    return id;
}

bool
ContextTable::insert(const CallContext &chain)
{
    const std::size_t before = size_;
    Id id = kRoot;
    for (InstrId site : chain)
        id = insert(id, site);
    return size_ != before;
}

bool
ContextTable::erase(const CallContext &chain)
{
    const Id id = find(chain);
    if (id == kNone || !nodes_[id].present)
        return false;
    nodes_[id].present = false;
    --size_;
    return true;
}

bool
ContextTable::merge(const ContextTable &other)
{
    const std::size_t before = size_;
    std::vector<Id> mapped(other.nodes_.size(), kRoot);
    for (Id id = 1; id < other.nodes_.size(); ++id) {
        const Node &from = other.nodes_[id];
        mapped[id] = from.present ? insert(mapped[from.parent], from.site)
                                  : node(mapped[from.parent], from.site);
    }
    return size_ != before;
}

CallContext
ContextTable::chain(Id id) const
{
    CallContext out(nodes_[id].depth);
    for (; id != kRoot; id = nodes_[id].parent)
        out[nodes_[id].depth - 1] = nodes_[id].site;
    return out;
}

std::vector<CallContext>
ContextTable::chains() const
{
    std::vector<CallContext> out;
    out.reserve(size_);
    for (Id id = 1; id < nodes_.size(); ++id)
        if (nodes_[id].present)
            out.push_back(chain(id));
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace oha::inv
