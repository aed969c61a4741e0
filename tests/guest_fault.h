/**
 * @file
 * Shared expectation for guest-fault tests: a faulting program stops
 * with the exact message and step count, recording it yields the same
 * RunResult as the plain run, and its capture replays to that step.
 */

#pragma once

#include <gtest/gtest.h>

#include <string>

#include "exec/trace.h"

namespace oha::exec {

inline void
expectGuestFault(const ir::Module &module, const std::string &reason,
                 std::uint64_t steps)
{
    ExecConfig config;
    config.recordSchedule = true;
    Interpreter interp(module, config);
    const RunResult plain = interp.run();
    EXPECT_EQ(plain.status, RunResult::Status::RuntimeError);
    EXPECT_EQ(plain.abortReason, reason);
    EXPECT_EQ(plain.steps, steps);

    const RecordedTrace trace = recordRun(module, config);
    const RunResult &recorded = trace.result;
    EXPECT_EQ(recorded.status, plain.status);
    EXPECT_EQ(recorded.abortReason, plain.abortReason);
    EXPECT_EQ(recorded.abortMeta, plain.abortMeta);
    EXPECT_EQ(recorded.outputs, plain.outputs);
    EXPECT_EQ(recorded.steps, plain.steps);
    for (std::size_t i = 0; i < kNumEventClasses; ++i)
        EXPECT_EQ(recorded.totalEvents.counts[i],
                  plain.totalEvents.counts[i]);
    EXPECT_TRUE(recorded.delivered.empty());
    EXPECT_EQ(recorded.numThreads, plain.numThreads);
    EXPECT_EQ(recorded.schedule, plain.schedule);

    TraceReplayer replayer(module, trace);
    const RunResult replayed = replayer.run();
    EXPECT_EQ(replayed.status, RunResult::Status::RuntimeError);
    EXPECT_EQ(replayed.abortReason, reason);
    EXPECT_EQ(replayed.steps, steps);
}

} // namespace oha::exec
