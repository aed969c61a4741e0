/**
 * @file
 * Tests for inv::ContextTable, the interned call-site chain set: the
 * prefix closure of insert, a forgotten chain keeping its extensions,
 * the sorted visit, merge and order-independent equality.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "invariants/context_table.h"
#include "support/rng.h"

namespace oha::inv {
namespace {

TEST(ContextTable, InsertAdmitsEveryPrefix)
{
    ContextTable table;
    EXPECT_EQ(table.size(), 0u);
    EXPECT_TRUE(table.insert({4, 8, 15}));
    EXPECT_EQ(table.size(), 3u);
    EXPECT_TRUE(table.contains({4}));
    EXPECT_TRUE(table.contains({4, 8}));
    EXPECT_TRUE(table.contains({4, 8, 15}));
    EXPECT_FALSE(table.contains({8}));
    EXPECT_FALSE(table.contains({4, 8, 15, 16}));
    EXPECT_FALSE(table.contains({})) << "the empty chain is never held";
    EXPECT_FALSE(table.insert({4, 8})) << "prefixes already present";
    EXPECT_TRUE(table.insert({4, 9}));
    EXPECT_EQ(table.size(), 4u);

    // Ids name chains: find by (parent, site) walks the same nodes.
    const ContextTable::Id four = table.find(ContextTable::kRoot, 4);
    const ContextTable::Id eight = table.find(four, 8);
    EXPECT_EQ(table.find({4, 8}), eight);
    EXPECT_EQ(table.chain(eight), (CallContext{4, 8}));
    EXPECT_EQ(table.depth(eight), 2u);
    EXPECT_EQ(table.find(eight, 99), ContextTable::kNone);
    EXPECT_EQ(table.find({7, 7}), ContextTable::kNone);
    EXPECT_EQ(table.insert(four, 8), eight) << "insert finds existing nodes";
}

TEST(ContextTable, EraseKeepsTheExtensions)
{
    ContextTable table;
    table.insert({1, 2, 3});
    EXPECT_TRUE(table.erase({1, 2}));
    EXPECT_FALSE(table.erase({1, 2})) << "already forgotten";
    EXPECT_FALSE(table.erase({5})) << "never held";
    EXPECT_EQ(table.size(), 2u);
    EXPECT_FALSE(table.contains({1, 2}));
    EXPECT_TRUE(table.contains({1, 2, 3}));
    EXPECT_TRUE(table.contains({1}));
    // The node stays: the forgotten chain is found, just not present.
    const ContextTable::Id forgotten = table.find({1, 2});
    ASSERT_NE(forgotten, ContextTable::kNone);
    EXPECT_FALSE(table.present(forgotten));
    EXPECT_EQ(table.chains(), (std::vector<CallContext>{{1}, {1, 2, 3}}));
    // Re-admitting it restores the original set.
    EXPECT_TRUE(table.insert({1, 2}));
    ContextTable fresh;
    fresh.insert({1, 2, 3});
    EXPECT_EQ(table, fresh);
}

/** @p count random chains over five sites, so that chains share
 *  prefixes and sibling order matters. */
std::vector<CallContext>
randomChains(Rng &rng, int count)
{
    std::vector<CallContext> chains;
    for (int i = 0; i < count; ++i) {
        CallContext chain(1 + rng.below(6));
        for (InstrId &site : chain)
            site = static_cast<InstrId>(rng.below(5));
        chains.push_back(chain);
    }
    return chains;
}

TEST(ContextTable, SortedVisitMatchesStdSetOrder)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        ContextTable table;
        std::set<CallContext> reference;
        for (const CallContext &chain : randomChains(rng, 60)) {
            table.insert(chain);
            for (std::size_t n = 1; n <= chain.size(); ++n)
                reference.insert(CallContext(chain.begin(),
                                             chain.begin() + n));
        }
        // Forget a few, as the fault injector does.
        for (const CallContext &chain : randomChains(rng, 10)) {
            const bool held = reference.erase(chain) > 0;
            EXPECT_EQ(table.erase(chain), held);
        }
        EXPECT_EQ(table.size(), reference.size()) << "seed " << seed;
        EXPECT_EQ(table.chains(),
                  std::vector<CallContext>(reference.begin(),
                                           reference.end()))
            << "seed " << seed;
    }
}

TEST(ContextTable, EqualityIgnoresInsertionOrder)
{
    Rng rng(7);
    std::vector<CallContext> chains = randomChains(rng, 40);
    ContextTable forward, backward;
    for (const CallContext &chain : chains)
        forward.insert(chain);
    std::reverse(chains.begin(), chains.end());
    for (const CallContext &chain : chains)
        backward.insert(chain);
    EXPECT_EQ(forward, backward);
    EXPECT_EQ(backward, forward);

    // Different ids, same chains; one forgotten chain tells them apart.
    backward.erase(chains.front());
    EXPECT_FALSE(forward == backward);
    EXPECT_FALSE(backward == forward);
    EXPECT_FALSE(ContextTable() == forward);
}

TEST(ContextTable, MergeAddsThePresentChains)
{
    ContextTable into;
    into.insert({1, 2});
    ContextTable from;
    from.insert({3, 4, 5});
    from.insert({1, 2, 6});
    from.erase({3, 4});
    EXPECT_TRUE(into.merge(from));
    EXPECT_EQ(into.chains(),
              (std::vector<CallContext>{
                  {1}, {1, 2}, {1, 2, 6}, {3}, {3, 4, 5}}));
    EXPECT_FALSE(into.merge(from)) << "nothing new the second time";
    EXPECT_FALSE(into.contains({3, 4})) << "absent nodes stay absent";
}

} // namespace
} // namespace oha::inv
