/**
 * @file
 * The names perfbench/probe.cc's `runFleet` calls, kept so that probe
 * builds unchanged: the benchmark definition (BENCHMARK.json) keeps
 * its source fixed.
 *
 * `--explore-jobs` no longer starts a worker fleet: every audit runs
 * IftEngine::run, and ParallelEngine::run is that call. ExploreConfig
 * only carries the fields the probe sets; they are ignored. Nothing in
 * src/, tools/ or tests/ uses this file. It is deleted by the
 * benchmark change that redefines the `rtos_fleet` workload.
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

/** What the probe sets for a fleet run (ignored). */
struct ExploreConfig
{
    unsigned jobs = 2;
    std::string auditBinary;
    std::vector<std::string> workerArgs;
};

/** IftEngine::run under the probe's old name. */
class ParallelEngine
{
  public:
    ParallelEngine(const Soc &soc, const Policy &policy,
                   const EngineConfig &cfg, const ExploreConfig &)
        : engine(soc, policy, cfg)
    {
    }

    EngineResult run(const ProgramImage &image)
    {
        return engine.run(image);
    }

  private:
    IftEngine engine;
};

} // namespace glifs::explore

#endif // GLIFS_EXPLORE_COORDINATOR_HH
