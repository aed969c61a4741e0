/**
 * @file
 * Tests for the IR text parser: hand-written programs, semantics of
 * parsed modules, error-free round-trips with the printer — including
 * a parameterized print->parse->print round-trip over every benchmark
 * workload module.
 */

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "exec/interpreter.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "workloads/workloads.h"

namespace oha::ir {
namespace {

TEST(IrParser, ParsesMinimalProgram)
{
    const auto module = parseModule(R"(
func main() {
  entry:
    r0 = 40
    r1 = 2
    r2 = r0 + r1
    output r2
    ret
}
)");
    exec::Interpreter interp(*module, {});
    const auto result = interp.run();
    ASSERT_TRUE(result.finished());
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0].second, 42);
}

TEST(IrParser, OverflowingArithmeticIsDefinedNotATrap)
{
    // Textual IR is untrusted input: INT64_MIN / -1 must not kill the
    // host with SIGFPE, and overflow wraps instead of being UB.
    const auto module = parseModule(R"(
func main() {
  entry:
    r0 = -9223372036854775808
    r1 = -1
    r2 = r0 / r1
    output r2
    r3 = r0 % r1
    output r3
    r4 = 9223372036854775807
    r5 = 1
    r6 = r4 + r5
    output r6
    r7 = r0 - r5
    output r7
    r8 = r4 * r4
    output r8
    r9 = 63
    r10 = r1 << r9
    output r10
    ret
}
)");
    exec::Interpreter interp(*module, {});
    const auto result = interp.run();
    ASSERT_TRUE(result.finished());
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    std::vector<std::int64_t> values;
    for (const auto &[instr, value] : result.outputs)
        values.push_back(value);
    EXPECT_EQ(values, (std::vector<std::int64_t>{kMin, 0, kMin, kMax, 1,
                                                 kMin}));
}

TEST(IrParser, ParsesGlobalsAndMemory)
{
    const auto module = parseModule(R"(
global cell[2]

func main() {
  entry:
    r0 = &cell
    r1 = &r0[1]
    r2 = 7
    *r1 = r2
    r3 = *r1
    output r3
    ret
}
)");
    exec::Interpreter interp(*module, {});
    EXPECT_EQ(interp.run().outputs[0].second, 7);
}

TEST(IrParser, ParsesControlFlowAndLoops)
{
    const auto module = parseModule(R"(
func main() {
  entry:
    r0 = 0
    r1 = 0
    r2 = 5
    r3 = 1
    br head
  head:
    r4 = r0 < r2
    condbr r4, body, exit
  body:
    r1 = r1 + r0
    r0 = r0 + r3
    br head
  exit:
    output r1
    ret
}
)");
    exec::Interpreter interp(*module, {});
    EXPECT_EQ(interp.run().outputs[0].second, 10);
}

TEST(IrParser, ParsesCallsIcallsAndForwardReferences)
{
    // `helper` is used before its definition appears.
    const auto module = parseModule(R"(
func main() {
  entry:
    r0 = 5
    r1 = call helper(r0)
    r2 = &helper
    r3 = icall *r2(r1)
    output r3
    ret
}

func helper(r0) {
  entry:
    r1 = r0 * r0
    ret r1
}
)");
    exec::Interpreter interp(*module, {});
    EXPECT_EQ(interp.run().outputs[0].second, 625);
}

TEST(IrParser, ParsesThreadsAndLocks)
{
    const auto module = parseModule(R"(
global g
global m

func worker() {
  entry:
    r0 = &m
    lock r0
    r1 = &g
    r2 = *r1
    r3 = 1
    r4 = r2 + r3
    *r1 = r4
    unlock r0
    ret r4
}

func main() {
  entry:
    r0 = spawn worker()
    r1 = spawn worker()
    r2 = join r0
    r3 = join r1
    r4 = &g
    r5 = *r4
    output r5
    ret
}
)");
    exec::ExecConfig config;
    config.scheduleSeed = 3;
    exec::Interpreter interp(*module, config);
    EXPECT_EQ(interp.run().outputs[0].second, 2);
}

TEST(IrParser, ParsesInputWithDynamicIndex)
{
    const auto module = parseModule(R"(
func main() {
  entry:
    r0 = input[1]
    r1 = input[0 + r0]
    output r1
    ret
}
)");
    exec::ExecConfig config;
    config.input = {10, 2, 30};
    exec::Interpreter interp(*module, config);
    EXPECT_EQ(interp.run().outputs[0].second, 30);
}

TEST(IrParser, CommentsAndBlankLinesAreIgnored)
{
    const auto module = parseModule(R"(
; a module-level comment

func main() {   ; trailing comment
  entry:        ; block comment
    r0 = 1      ; instruction comment

    output r0
    ret
}
)");
    exec::Interpreter interp(*module, {});
    EXPECT_EQ(interp.run().outputs[0].second, 1);
}

TEST(IrParser, RoundTripsItsOwnOutput)
{
    const auto module = parseModule(R"(
global table[4]

func pick(r0) {
  entry:
    r1 = &table
    r2 = &r1[r0]
    r3 = *r2
    ret r3
}

func main() {
  entry:
    r0 = &table
    r1 = &pick
    r2 = &r0[2]
    r3 = 9
    *r2 = r3
    r4 = call pick(r3)
    r5 = 0
    r6 = r3 <= r5
    condbr r6, low, high
  low:
    output r5
    ret
  high:
    output r4
    ret
}
)");
    const std::string once = printModule(*module);
    const auto reparsed = parseModule(once);
    EXPECT_EQ(printModule(*reparsed), once);
}

/** Round-trip property over every benchmark module. */
class WorkloadRoundTrip : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadRoundTrip, PrintParsePrintIsStable)
{
    const std::string name = GetParam();
    const bool race = [&] {
        for (const auto &n : workloads::raceWorkloadNames())
            if (n == name)
                return true;
        return false;
    }();
    const auto workload = race ? workloads::makeRaceWorkload(name, 1, 1)
                               : workloads::makeSliceWorkload(name, 1, 1);

    const std::string once = printModule(*workload.module);
    const auto reparsed = parseModule(once);
    EXPECT_EQ(printModule(*reparsed), once);

    // The reparsed module must behave identically.
    exec::Interpreter a(*workload.module, workload.testingSet.front());
    exec::Interpreter b(*reparsed, workload.testingSet.front());
    EXPECT_EQ(a.run().outputs, b.run().outputs);
}

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names = workloads::raceWorkloadNames();
    for (const auto &n : workloads::sliceWorkloadNames())
        names.push_back(n);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadRoundTrip,
    ::testing::ValuesIn(allWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace oha::ir
