/**
 * @file
 * Work-stealing parallel symbolic exploration (DESIGN.md §10).
 *
 * ParallelEngine runs the engine's one Algorithm-1 driver
 * (IftEngine::run) with a worker fleet plugged in as its
 * SegmentSource. The driver keeps the authoritative run -- frontier,
 * state table, governor, violation log, execution tree -- and applies
 * every segment in serial order. Worker processes only ever execute
 * segments speculatively -- pure functions of their start state
 * (ift/path_sim.hh) -- and publish the results into a digest-keyed
 * cache. When the driver pops a state whose digest is cached, the
 * fleet hands it the result instead of letting it re-simulate; when
 * it is not (or the result would cross a cycle budget mid-segment),
 * the driver simulates inline under the real governor. The verdict,
 * violation set, cycle counts and execution tree are therefore
 * bit-identical to the serial engine for every job count, and progress
 * never depends on any worker staying alive.
 *
 * Work is sharded to per-worker queues round-robin; a drained worker
 * steals from the most loaded queue (explore.steals). A worker that
 * dies (crash, kill -9, injected fault) is detected by pipe EOF, its
 * outstanding work is resharded, and it is respawned up to a cap
 * (explore.workers_respawned).
 */

#ifndef GLIFS_EXPLORE_COORDINATOR_HH
#define GLIFS_EXPLORE_COORDINATOR_HH

#include <string>
#include <vector>

#include "assembler/program_image.hh"
#include "ift/engine.hh"
#include "ift/policy.hh"
#include "soc/soc.hh"

namespace glifs::explore
{

/** How the coordinator runs and respawns its worker fleet. */
struct ExploreConfig
{
    /** Total exploration processes including the coordinator; the
     *  coordinator spawns jobs-1 workers. Must be >= 2 (jobs == 1 is
     *  the untouched serial IftEngine path, selected by the caller). */
    unsigned jobs = 2;

    /** The glifs_audit binary to exec as --explore-worker. */
    std::string auditBinary;

    /** argv tail rebuilding the same Soc/Policy/image in the worker
     *  (firmware path, --policy/--task-base/--task-end/--taint-code,
     *  --max-cycles). */
    std::vector<std::string> workerArgs;

    unsigned chunkEntries = 6;   ///< execution points per work unit
    unsigned maxOutstanding = 2; ///< shipped units in flight per worker
    unsigned respawnCap = 3;     ///< respawns per worker slot
};

/**
 * IftEngine::run with the worker fleet as its segment source. Same
 * inputs, same EngineResult contract, deterministically identical
 * output.
 */
class ParallelEngine
{
  public:
    ParallelEngine(const Soc &s, const Policy &p, const EngineConfig &c,
                   ExploreConfig x);

    EngineResult run(const ProgramImage &image,
                     const EngineCheckpoint *resume = nullptr);

  private:
    const Soc &soc;
    const Policy &policy;
    EngineConfig cfg;
    ExploreConfig xcfg;
};

} // namespace glifs::explore

#endif // GLIFS_EXPLORE_COORDINATOR_HH
