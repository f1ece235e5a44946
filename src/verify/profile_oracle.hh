/**
 * @file
 * The profiler's oracle: an executor-driven dispatch-count loop to
 * check the profiler's fast-handler counts (countRetires,
 * sim/machine.hh) against.
 *
 * The oracle steps the reference executor (sim/executor.hh) one
 * MicroOp at a time over a fresh memory image and honours the same
 * contract as countRetires: every dispatched instruction counts,
 * annulled ones included; the (max_instrs + 1)-th dispatch and a fall
 * off the end of the program are fatal with the profiler's texts; an
 * architectural trap propagates as TrapError. diffRetireCounts runs
 * both and requires equal counts, totals and error texts — the check
 * pfits_verify applies to every kernel and random program.
 */

#ifndef POWERFITS_VERIFY_PROFILE_ORACLE_HH
#define POWERFITS_VERIFY_PROFILE_ORACLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/frontend.hh"

namespace pfits
{

/** The executor-driven twin of countRetires(); same contract. */
std::vector<uint64_t> oracleRetireCounts(const FrontEnd &fe,
                                         uint64_t max_instrs,
                                         uint64_t &dispatched);

/**
 * Count @p fe's dispatches with countRetires() and with the oracle and
 * append one line to @p out per disagreement: per-instruction counts,
 * the total, or the FatalError/TrapError text when either side throws.
 */
void diffRetireCounts(const FrontEnd &fe, std::vector<std::string> &out,
                      uint64_t max_instrs = 400'000'000);

} // namespace pfits

#endif // POWERFITS_VERIFY_PROFILE_ORACLE_HH
