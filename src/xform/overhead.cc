#include "xform/overhead.hh"

#include <sstream>

#include "base/strutil.hh"
#include "netlist/stats.hh"

namespace glifs
{

SocRunner::Stimulus
measurementStimulus(uint32_t seed)
{
    return [seed](unsigned port, uint64_t /*cycle*/) -> uint16_t {
        // Hash of (seed, port) only: the value is constant over time,
        // so two program variants that sample the port on different
        // cycles (e.g. before/after mask insertion) still see the same
        // data and their cycle counts are directly comparable.
        uint32_t x = seed ^ (port * 0x9E3779B9u);
        x ^= x >> 13;
        x *= 0x85EBCA6Bu;
        x ^= x >> 16;
        return static_cast<uint16_t>(x);
    };
}

MeasuredRun
measureRun(const Soc &soc, const ProgramImage &image,
           const MeasureConfig &cfg)
{
    MeasuredRun run;
    SocRunner runner(soc);
    runner.load(image);
    runner.setStimulus(measurementStimulus(cfg.stimulusSeed));
    if (cfg.measureEnergy)
        runner.simulator().enableToggleStats(true);
    runner.reset();
    runner.simulator().resetCycleCount();
    runner.simulator().toggleStats().clear();

    bool done = false;
    while (runner.cycles() < cfg.maxCycles) {
        runner.stepCycle();
        if (!done && runner.portOut(cfg.donePort) == cfg.doneValue) {
            done = true;
            if (!cfg.runToPorAfterDone)
                break;
        }
        if (done && cfg.runToPorAfterDone) {
            Signal por =
                runner.simulator().netValue(soc.probes().porNet);
            if (por.known() && por.asBool())
                break;
        }
    }

    run.completed = done;
    run.cycles = runner.cycles();
    if (cfg.measureEnergy) {
        run.energy = computeEnergy(computeStats(soc.netlist()),
                                   runner.simulator().toggleStats());
    }
    return run;
}

double
OverheadComparison::perfOverhead() const
{
    if (base.cycles == 0)
        return 0.0;
    return (static_cast<double>(modified.cycles) -
            static_cast<double>(base.cycles)) /
           static_cast<double>(base.cycles);
}

double
OverheadComparison::energyOverhead() const
{
    if (base.energy.totalFj() <= 0.0)
        return 0.0;
    return (modified.energy.totalFj() - base.energy.totalFj()) /
           base.energy.totalFj();
}

std::string
OverheadComparison::str() const
{
    std::ostringstream oss;
    oss << "base " << base.cycles << " cy -> modified "
        << modified.cycles << " cy (+" << percent(perfOverhead())
        << "), energy +" << percent(energyOverhead());
    return oss.str();
}

} // namespace glifs
