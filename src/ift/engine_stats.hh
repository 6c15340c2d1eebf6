/**
 * @file
 * The engine.* stat catalogue (docs/OBSERVABILITY.md), shared by the
 * exploration driver (ift/engine.cc) and the segment runner
 * (ift/path_sim.cc).
 */

#ifndef GLIFS_IFT_ENGINE_STATS_HH
#define GLIFS_IFT_ENGINE_STATS_HH

#include "base/stats.hh"

namespace glifs
{

/** Exploration counters of the symbolic engine. */
struct EngineStats
{
    stats::Scalar runs{"engine.runs", "analysis runs started"};
    stats::Scalar cycles{"engine.cycles",
                         "simulated cycles across all paths"};
    stats::Scalar paths{"engine.paths", "execution points explored"};
    stats::Scalar branchPoints{"engine.branch_points",
                               "forks on unknown PC or reset"};
    stats::Scalar porForks{"engine.por_forks",
                           "unknown watchdog-expiry forks"};
    stats::Scalar pcFanouts{"engine.pc_fanouts",
                            "unknown-PC successor enumerations"};
    stats::Scalar stateCaptures{"engine.state_captures",
                                "SymState captures taken inside segments"};
    stats::Distribution fanoutWidth{
        "engine.fanout_width",
        "concrete successors per unknown-PC branch", 0, 64, 16};
    stats::Distribution frontierDepth{
        "engine.frontier_depth", "frontier size at each pop", 0, 256,
        32};
    stats::Gauge frontierPeak{"engine.frontier_peak",
                              "pending execution points"};
    stats::Scalar escalations{"engine.escalations",
                              "degradation-ladder escalations"};
    stats::Scalar starSaturations{"engine.star_saturations",
                                  "paths saturated to *-logic"};
    stats::Gauge setupSeconds{"engine.setup_seconds",
                              "wall time loading/restoring state"};
    stats::Gauge exploreSeconds{"engine.explore_seconds",
                                "wall time in the exploration loop"};
    stats::Gauge finalizeSeconds{
        "engine.finalize_seconds",
        "wall time assembling results/checkpoints"};
    stats::Formula cyclesPerPath{
        "engine.cycles_per_path", "mean simulated cycles per path",
        [] {
            EngineStats &s = instance();
            return s.paths.value() == 0
                       ? 0.0
                       : static_cast<double>(s.cycles.value()) /
                             s.paths.value();
        }};

    static EngineStats &instance();
};

/** The process-wide engine.* counters. */
EngineStats &engineStats();

} // namespace glifs

#endif // GLIFS_IFT_ENGINE_STATS_HH
