/**
 * @file
 * Replay by re-execution.  An execution is a pure function of
 * (module, input, schedule seed), so a record keeps only its input,
 * and a replay is a live Interpreter run of it with tools attached:
 * the deterministic re-execution the paper's rollback assumes
 * (Section 2.3).  This layer only keeps the names the repository
 * benchmark's traced sweep calls; it is deleted once that sweep times
 * the live pipeline instead.
 */

#pragma once

#include <cstddef>

#include "exec/interpreter.h"

namespace oha::exec {

/** One recorded execution: the input it ran plus its plain outcome. */
struct RecordedTrace
{
    ExecConfig config;
    /** Result of the recording run (no tools attached, so
     *  `delivered` is empty). */
    RunResult result;

    /** What the record keeps, under the name the traced sweep sizes:
     *  the bytes of its input words. */
    struct Events
    {
        std::size_t bytes = 0;
        std::size_t sizeBytes() const { return bytes; }
    } events;
};

/** Execute @p config once, uninstrumented, keeping its input. */
RecordedTrace recordRun(const ir::Module &module, const ExecConfig &config);

/**
 * Re-executes a recorded input live with the attached tools, so its
 * RunResult is that of a live run of the same tools under the same
 * plans.  Dies if the re-execution's status or step count differs
 * from the recorded run's (a tool aborted it, or the recording is not
 * of this module).
 */
class TraceReplayer
{
  public:
    TraceReplayer(const ir::Module &module, const RecordedTrace &trace)
        : trace_(trace), interp_(module, trace.config)
    {
    }

    /** Attach a tool filtered by @p plan.  Both must outlive run(). */
    void attach(Tool *tool, const InstrumentationPlan *plan)
    {
        interp_.attach(tool, plan);
    }

    /** Re-execute the recorded input through the attached tools. */
    RunResult run();

  private:
    const RecordedTrace &trace_;
    Interpreter interp_;
};

} // namespace oha::exec
