/**
 * @file
 * The exploration worker process (`glifs_audit --explore-worker`).
 *
 * A worker is a persistent child of the parallel coordinator
 * (explore/coordinator.hh): it compiles the netlist once, then serves
 * work units for the rest of the run. The control protocol is two text
 * line streams over inherited pipes:
 *
 *   fd 0 (coordinator -> worker):  `w <seq> <path>`  process one unit
 *                                  `q`               drain and exit
 *   fd 3 (worker -> coordinator):  `r <seq> <usec> <path>`  results
 *                                  `e <seq>`                unit lost
 *
 * For every shipped execution point the worker runs the segment, then
 * speculatively *chains*: as long as a segment ends at a commit with a
 * concrete PC (the driver's continuation case), the next
 * segment is run from its end state, up to a chain cap. Each link is
 * reported under its own start-state digest, so the driver's
 * strictly-serial apply consumes exactly the prefix of the chain that
 * the authoritative state table agrees with and prunes the rest.
 *
 * All file and pipe I/O goes through faultfs, so the crash-recovery
 * sweeps (GLIFS_FAULT_PLAN) can kill a worker deterministically at any
 * read/write boundary; the coordinator must then recover by resharding
 * (tests/test_explore.cc).
 */

#ifndef GLIFS_EXPLORE_WORKER_HH
#define GLIFS_EXPLORE_WORKER_HH

#include "assembler/program_image.hh"
#include "ift/engine.hh"
#include "ift/policy.hh"
#include "soc/soc.hh"

namespace glifs::explore
{

/** The fd the coordinator attaches the result stream to. */
constexpr int kResultFd = 3;

/** Maximum segments chained speculatively per shipped entry. */
constexpr unsigned kChainSegments = 8;

/**
 * Serve work units until `q` or EOF on fd 0. cfg.maxCycles bounds the
 * simulated cycles per shipped entry (chain total); a segment still
 * running at the cap is reported as overrun and re-executed inline by
 * the driver under the real governor. Returns the process exit
 * code.
 */
int workerMain(const Soc &soc, const Policy &policy,
               const EngineConfig &cfg, const ProgramImage &image);

} // namespace glifs::explore

#endif // GLIFS_EXPLORE_WORKER_HH
