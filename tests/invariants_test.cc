/**
 * @file
 * Tests for the InvariantSet artifact: the text format, context
 * hashing, fact counting and query helpers.
 */

#include <gtest/gtest.h>

#include "dyn/violation.h"
#include "invariants/invariant_set.h"

namespace oha::inv {
namespace {

InvariantSet
sample()
{
    InvariantSet set;
    set.numBlocks = 10;
    set.visitedBlocks.insert(0);
    set.visitedBlocks.insert(3);
    set.visitedBlocks.insert(9);
    set.calleeSets[42] = {1, 2};
    set.calleeSets[77] = {0};
    set.hasCallContexts = true;
    set.callContexts.insert({5});
    set.callContexts.insert({5, 9});
    set.mustAliasLocks.insert({11, 11});
    set.mustAliasLocks.insert({11, 23});
    set.singletonSpawnSites.insert(31);
    set.elidableLockSites.insert(11);
    return set;
}

TEST(InvariantSet, SaveIsHumanReadable)
{
    const std::string text = sample().saveText();
    EXPECT_NE(text.find("oha-invariants v1"), std::string::npos);
    EXPECT_NE(text.find("visited"), std::string::npos);
    EXPECT_NE(text.find("callees 42 1 2"), std::string::npos);
    EXPECT_NE(text.find("lockalias 11 23"), std::string::npos);
    EXPECT_NE(text.find("singleton 31"), std::string::npos);
    EXPECT_NE(text.find("context 5 9"), std::string::npos);
}

TEST(InvariantSet, FactCountCoversEveryFamily)
{
    EXPECT_EQ(sample().factCount(),
              3u /*blocks*/ + 3u /*callees*/ + 2u /*contexts*/ +
                  2u /*locks*/ + 1u /*singleton*/ + 1u /*elidable*/);
}

TEST(InvariantSet, LocksMustAliasIsOrderNormalized)
{
    const InvariantSet set = sample();
    EXPECT_TRUE(set.locksMustAlias(11, 23));
    EXPECT_TRUE(set.locksMustAlias(23, 11));
    EXPECT_FALSE(set.locksMustAlias(23, 23));
}

TEST(InvariantSet, ContextHashesDistinguishOrderAndDepth)
{
    EXPECT_NE(contextHash({1, 2}), contextHash({2, 1}));
    EXPECT_NE(contextHash({1}), contextHash({1, 1}));
    EXPECT_NE(contextHash({}), contextHash({0}));
}

TEST(InvariantSet, BlockVisitedOutOfRangeIsFalse)
{
    const InvariantSet set = sample();
    EXPECT_FALSE(set.blockVisited(1000));
    EXPECT_TRUE(set.blockVisited(3));
    EXPECT_FALSE(set.blockVisited(4));
}

dyn::Violation
violation(dyn::ViolationFamily family, InstrId site,
          InstrId partner = kNoInstr)
{
    dyn::Violation v;
    v.family = family;
    v.site = site;
    v.partner = partner;
    return v;
}

TEST(InvariantDemotion, UnreachableBlockBecomesVisited)
{
    InvariantSet set = sample();
    ASSERT_FALSE(set.blockVisited(4));
    EXPECT_TRUE(
        set.demote(violation(dyn::ViolationFamily::UnreachableBlock, 4)));
    EXPECT_TRUE(set.blockVisited(4));
    // Already repaired: nothing left to remove.
    EXPECT_FALSE(
        set.demote(violation(dyn::ViolationFamily::UnreachableBlock, 4)));
}

TEST(InvariantDemotion, CalleeSetAdmitsTheObservedTarget)
{
    InvariantSet set = sample();
    ASSERT_EQ(set.calleeSets.at(42), (std::set<FuncId>{1, 2}));
    dyn::Violation v = violation(dyn::ViolationFamily::CalleeSet, 42);
    v.observed = 9;
    EXPECT_TRUE(set.demote(v));
    // Widened, never dropped: a missing entry would read as "the site
    // never executes" to the predicated analyses.
    EXPECT_EQ(set.calleeSets.at(42), (std::set<FuncId>{1, 2, 9}));
    EXPECT_EQ(set.calleeSets.at(77), std::set<FuncId>{0})
        << "other sites untouched";
    EXPECT_FALSE(set.demote(v)) << "target already admitted";
    // A violation at an unknown site is unrepairable (the checker
    // never watches such sites, so this cannot happen organically).
    dyn::Violation stray = violation(dyn::ViolationFamily::CalleeSet, 5);
    stray.observed = 1;
    EXPECT_FALSE(set.demote(stray));
}

TEST(InvariantDemotion, CallContextInsertsChainAndPrefixes)
{
    InvariantSet set = sample();
    dyn::Violation v =
        violation(dyn::ViolationFamily::CallContext, 9);
    v.contextChain = {5, 9, 13};
    ASSERT_FALSE(set.callContexts.contains({5, 9, 13}));
    EXPECT_TRUE(set.demote(v));
    EXPECT_TRUE(set.callContexts.contains({5, 9, 13}));
    EXPECT_TRUE(set.callContexts.contains({5, 9})) << "prefixes too";
    EXPECT_EQ(set.callContexts.size(), 3u);
    EXPECT_FALSE(set.demote(v)) << "chain already admitted";
}

TEST(InvariantDemotion, MustAliasPairErased)
{
    InvariantSet set = sample();
    ASSERT_TRUE(set.locksMustAlias(11, 23));
    // Pair divergence removes the (normalized) pair only.
    EXPECT_TRUE(
        set.demote(violation(dyn::ViolationFamily::MustAliasLock, 23, 11)));
    EXPECT_FALSE(set.locksMustAlias(11, 23));
    EXPECT_TRUE(set.mustAliasLocks.count({11, 11}))
        << "reflexive fact survives a pair divergence";
}

TEST(InvariantDemotion, RebindErasesEveryPairTouchingTheSite)
{
    InvariantSet set = sample();
    // partner == site encodes a single-site rebind: the site is not
    // single-object, so every pair built on it is unsound.
    EXPECT_TRUE(
        set.demote(violation(dyn::ViolationFamily::MustAliasLock, 11, 11)));
    EXPECT_TRUE(set.mustAliasLocks.empty());
    EXPECT_FALSE(
        set.demote(violation(dyn::ViolationFamily::MustAliasLock, 11, 11)));
}

TEST(InvariantDemotion, SingletonSpawnErased)
{
    InvariantSet set = sample();
    EXPECT_TRUE(
        set.demote(violation(dyn::ViolationFamily::SingletonSpawn, 31)));
    EXPECT_FALSE(set.singletonSpawnSites.count(31));
    EXPECT_FALSE(
        set.demote(violation(dyn::ViolationFamily::SingletonSpawn, 31)));
}

TEST(InvariantDemotion, ElidedLockRaceClearsAllElisions)
{
    InvariantSet set = sample();
    ASSERT_FALSE(set.elidableLockSites.empty());
    EXPECT_TRUE(
        set.demote(violation(dyn::ViolationFamily::ElidedLockRace, 0)));
    EXPECT_TRUE(set.elidableLockSites.empty());
    EXPECT_FALSE(
        set.demote(violation(dyn::ViolationFamily::ElidedLockRace, 0)));
}

TEST(InvariantDemotion, NoneIsNotDemotable)
{
    InvariantSet set = sample();
    EXPECT_FALSE(set.demote(violation(dyn::ViolationFamily::None, 0)));
    EXPECT_TRUE(set == sample());
}

} // namespace
} // namespace oha::inv
