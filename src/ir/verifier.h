/**
 * @file
 * Structural verifier for OHA IR modules.
 */

#pragma once

namespace oha::ir {

class Module;

/** Registers one function may use.  Every frame of a function gets a
 *  window of numRegs() registers (16 bytes each, so 1 MiB here); the
 *  workloads use at most 149. */
inline constexpr unsigned kMaxRegisters = 1u << 16;

/**
 * Check that @p module is structurally well-formed: it has a main(),
 * every block ends with exactly one terminator, branch targets stay
 * within their function, no function uses more than kMaxRegisters
 * registers, register operands are in range, and call arities match
 * their callees.  Fatal on the first violation.
 */
void verifyModule(const Module &module);

} // namespace oha::ir
