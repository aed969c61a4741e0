/**
 * @file
 * Tests for the IR text parser: hand-written programs, semantics of
 * parsed modules, error-free round-trips with the printer — including
 * a parameterized print->parse->print round-trip over every benchmark
 * workload module, and a seeded mutation sweep over the printed
 * workloads that must end in a clean exit, never a signal.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "exec/interpreter.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "support/rng.h"
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

/** The seeded mutations of the sweep below. */
enum class Mutation
{
    DigitRun,      ///< a digit run replaced by a boundary value
    TokenSwap,     ///< two whitespace-separated tokens swapped
    DropLine,      ///< one line removed
    DuplicateLine, ///< one line repeated
    ByteFlip,      ///< one bit of one byte inverted
    Count
};

/** @p text with one @p kind mutation drawn from @p rng. */
std::string
mutate(std::string text, Mutation kind, Rng &rng)
{
    auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng.below(n));
    };
    auto isDigit = [&](std::size_t i) {
        return std::isdigit(static_cast<unsigned char>(text[i])) != 0;
    };
    auto isSpace = [&](std::size_t i) {
        return std::isspace(static_cast<unsigned char>(text[i])) != 0;
    };
    std::vector<std::pair<std::size_t, std::size_t>> spans; // [begin, end)
    switch (kind) {
      case Mutation::DigitRun: {
        static const char *const kRuns[] = {
            "99999999999999999999", "18446744073709551615", "4294967296",
            "4294967295", "65536", "-1", "0"};
        for (std::size_t i = 0; i < text.size(); ++i)
            if (isDigit(i) && (i == 0 || !isDigit(i - 1))) {
                std::size_t end = i;
                while (end < text.size() && isDigit(end))
                    ++end;
                spans.push_back({i, end});
            }
        const auto [begin, end] = spans[pick(spans.size())];
        return text.replace(begin, end - begin,
                            kRuns[pick(std::size(kRuns))]);
      }
      case Mutation::TokenSwap: {
        for (std::size_t i = 0; i < text.size(); ++i)
            if (!isSpace(i) && (i == 0 || isSpace(i - 1))) {
                std::size_t end = i;
                while (end < text.size() && !isSpace(end))
                    ++end;
                spans.push_back({i, end});
            }
        std::size_t a = pick(spans.size());
        std::size_t b = pick(spans.size());
        if (a > b)
            std::swap(a, b);
        const auto [a0, a1] = spans[a];
        const auto [b0, b1] = spans[b];
        return text.substr(0, a0) + text.substr(b0, b1 - b0) +
               text.substr(a1, b0 - a1) + text.substr(a0, a1 - a0) +
               text.substr(b1);
      }
      case Mutation::DropLine:
      case Mutation::DuplicateLine: {
        for (std::size_t i = 0; i < text.size();) {
            const std::size_t end = text.find('\n', i) + 1;
            spans.push_back({i, end});
            i = end;
        }
        const auto [begin, end] = spans[pick(spans.size())];
        return kind == Mutation::DropLine
                   ? text.erase(begin, end - begin)
                   : text.insert(begin, text.substr(begin, end - begin));
      }
      case Mutation::ByteFlip:
        text[pick(text.size())] ^= static_cast<char>(1u << pick(8));
        return text;
      case Mutation::Count:
        break;
    }
    return text;
}

/** Parse, verify and run @p text under @p config in a forked child
 *  whose output is discarded; @return its wait status. */
int
parseAndRunInChild(const std::string &text, const exec::ExecConfig &config)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        const int devNull = ::open("/dev/null", O_WRONLY);
        ::dup2(devNull, STDOUT_FILENO);
        ::dup2(devNull, STDERR_FILENO);
        const auto module = parseModule(text); // finalize() verifies
        exec::Interpreter(*module, config).run();
        ::_exit(0);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
}

TEST(IrMutationSweep, EveryMutantExitsCleanly)
{
    // Each mutant of each printed workload either parses, verifies and
    // runs (exit 0, whatever the run's status), or is rejected with a
    // diagnostic (exit 1).  A signal — an assertion, an uncaught
    // exception, a fault — fails the sweep.  Three cases of each kind
    // per workload keep the sweep near a second.
    constexpr int kCasesPerKind = 3;
    std::size_t exits[2] = {0, 0};
    const std::vector<std::string> names = allWorkloadNames();
    for (std::size_t w = 0; w < names.size(); ++w) {
        const bool race = w < workloads::raceWorkloadNames().size();
        const auto workload =
            race ? workloads::makeRaceWorkload(names[w], 1, 1)
                 : workloads::makeSliceWorkload(names[w], 1, 1);
        const std::string printed = printModule(*workload.module);
        exec::ExecConfig config = workload.testingSet.front();
        config.maxSteps = 20'000;
        for (int kind = 0; kind < static_cast<int>(Mutation::Count);
             ++kind) {
            for (int c = 0; c < kCasesPerKind; ++c) {
                Rng rng(w * 1000 + kind * 10 + c + 1);
                const std::string mutant =
                    mutate(printed, static_cast<Mutation>(kind), rng);
                const int status = parseAndRunInChild(mutant, config);
                const std::string where = names[w] + " kind " +
                                          std::to_string(kind) + " case " +
                                          std::to_string(c);
                ASSERT_TRUE(WIFEXITED(status))
                    << where << ": signal " << WTERMSIG(status);
                const int code = WEXITSTATUS(status);
                ASSERT_TRUE(code == 0 || code == 1)
                    << where << ": exit " << code;
                ++exits[code];
            }
        }
    }
    // Both outcomes occur, so the mutations neither all break the
    // text nor all leave it intact.
    EXPECT_GT(exits[0], 0u);
    EXPECT_GT(exits[1], 0u);
}

} // namespace
} // namespace oha::ir
