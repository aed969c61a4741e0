/**
 * @file
 * Context-sensitivity internals of the Andersen analysis: depth
 * overflow falls back to per-function CI instances, context instances
 * are navigable through callEdges(), and CS results refine CI results
 * (never the other way).
 */

#include <gtest/gtest.h>

#include "analysis/andersen.h"
#include "ir/builder.h"
#include "workloads/workloads.h"

namespace oha::analysis {
namespace {

using ir::Function;
using ir::IRBuilder;
using ir::Module;
using ir::Reg;

TEST(AndersenCs, DepthOverflowUsesFallbackInstances)
{
    // A linear call chain deeper than the context cap.
    Module module;
    IRBuilder b(module);
    Function *leaf = b.createFunction("leaf", 0);
    b.ret(b.alloc(1));
    Function *prev = leaf;
    for (int depth = 0; depth < 12; ++depth) {
        Function *f = b.createFunction("mid" + std::to_string(depth), 0);
        b.ret(b.call(prev, {}));
        prev = f;
    }
    b.createFunction("main", 0);
    const Reg p = b.call(prev, {});
    (void)p;
    b.ret();
    module.finalize();

    AndersenOptions options;
    options.contextSensitive = true;
    options.maxContextDepth = 4;
    const auto result = runAndersen(module, options);
    ASSERT_TRUE(result.completed);

    bool sawFallback = false;
    for (const auto &ctx : result.contexts)
        sawFallback = sawFallback || ctx.fallback;
    EXPECT_TRUE(sawFallback)
        << "chains beyond the depth cap must reuse fallback instances";

    // The result still reaches the leaf allocation.
    const FuncId mainId = module.functionByName("main")->id();
    const std::uint32_t mainCtx = result.instancesOf(mainId).front();
    EXPECT_FALSE(result.pts(mainCtx, p).empty());
}

TEST(AndersenCs, CsRefinesCiNeverWidens)
{
    // Property over a real benchmark: for every load/store, the CS
    // target set is a subset of the CI target set.
    const auto workload = workloads::makeSliceWorkload("redis", 1, 1);
    const ir::Module &module = *workload.module;

    const auto ci = runAndersen(module, {});
    // redis's sound CS solve clones 8,307 contexts: above the
    // pipelines' default budget, so pin one that lets it complete.
    AndersenOptions csOptions;
    csOptions.contextSensitive = true;
    csOptions.maxContexts = 20000;
    const auto cs = runAndersen(module, csOptions);
    ASSERT_TRUE(cs.completed);

    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        if (!module.instr(id).isMemAccess())
            continue;
        SparseBitSet ciCells = ci.pointerTargets(id);
        const SparseBitSet csCells = cs.pointerTargets(id);
        // Compare at (object source, field) granularity: CS clones
        // objects, so cell ids differ across the two results.
        std::set<std::tuple<int, std::uint32_t, std::uint32_t>> ciKeys,
            csKeys;
        auto keyify = [](const AndersenResult &r, const SparseBitSet &s,
                         auto &out) {
            s.forEach([&](CellId cell) {
                const auto &object =
                    r.memory.object(r.memory.objectOfCell(cell));
                out.insert({int(object.kind), object.srcId,
                            r.memory.fieldOfCell(cell)});
            });
        };
        keyify(ci, ciCells, ciKeys);
        keyify(cs, csCells, csKeys);
        for (const auto &key : csKeys) {
            EXPECT_TRUE(ciKeys.count(key))
                << "CS widened the target set of i" << id;
        }
    }
}

TEST(AndersenCs, CallEdgesNavigateTheContextTree)
{
    Module module;
    IRBuilder b(module);
    Function *helper = b.createFunction("helper", 0);
    b.ret(b.alloc(1));
    b.createFunction("main", 0);
    b.call(helper, {});
    b.call(helper, {});
    b.ret();
    module.finalize();

    AndersenOptions options;
    options.contextSensitive = true;
    const auto result = runAndersen(module, options);
    ASSERT_TRUE(result.completed);

    const FuncId mainId = module.functionByName("main")->id();
    const FuncId helperId = module.functionByName("helper")->id();
    EXPECT_EQ(result.instancesOf(helperId).size(), 2u);

    const std::uint32_t mainCtx = result.instancesOf(mainId).front();
    std::set<std::uint32_t> reached;
    for (InstrId id = 0; id < module.numInstrs(); ++id) {
        if (module.instr(id).op != ir::Opcode::Call)
            continue;
        const auto callee =
            result.calleeInstance(mainCtx, id, helperId);
        ASSERT_NE(callee, static_cast<std::uint32_t>(-1));
        reached.insert(callee);
        EXPECT_EQ(result.contexts[callee].callSite, id);
        EXPECT_EQ(result.contexts[callee].parent, mainCtx);
    }
    EXPECT_EQ(reached.size(), 2u) << "one instance per call site";
}

} // namespace
} // namespace oha::analysis
