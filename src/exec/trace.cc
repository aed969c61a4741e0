#include "exec/trace.h"

#include "support/common.h"

namespace oha::exec {

RecordedTrace
recordRun(const ir::Module &module, const ExecConfig &config)
{
    RecordedTrace trace;
    trace.config = config;
    trace.result = Interpreter(module, config).run();
    trace.events.bytes = config.input.size() * sizeof(config.input[0]);
    return trace;
}

RunResult
TraceReplayer::run()
{
    RunResult result = interp_.run();
    OHA_ASSERT(result.status == trace_.result.status &&
                   result.steps == trace_.result.steps,
               "re-execution diverges from the recorded run");
    return result;
}

} // namespace oha::exec
