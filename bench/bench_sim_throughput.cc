/**
 * @file
 * Simulator-throughput ablation (supporting bench, not a paper table):
 * gate-evaluations per second of the GLIFT simulator in concrete and
 * symbolic operation, and the cost of symbolic state capture/restore/
 * merge -- the primitives the analysis engine's runtime (footnote 4)
 * is built from.
 *
 * The cycle benchmarks run the cross product of scheduling mode
 * (sweep:0 is the event-driven default, sweep:1 the full levelized
 * sweep; see DESIGN.md "Simulator scheduling") and evaluation backend
 * (interp:0 is the compiled bit-packed default, interp:1 the
 * per-signal table interpreter; DESIGN.md "Compiled evaluation"), and
 * report evals_per_cycle / skipped_per_cycle from the sim.* stats
 * registry deltas, plus a cycles_per_sec rate, so
 * BENCH_sim_throughput.json records the speedup and the
 * gate-evaluation reduction side by side.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "assembler/assembler.hh"
#include "base/stats.hh"
#include "bench_common.hh"
#include "ift/checkpoint.hh"
#include "ift/symstate.hh"
#include "netlist/stats.hh"
#include "soc/runner.hh"
#include "soc/soc.hh"

using namespace glifs;

namespace
{

Soc &
sharedSoc()
{
    static Soc soc;
    return soc;
}

ProgramImage
loopImage()
{
    return assembleSource(
        "        mov #1000, r4\n"
        "l:      add #3, r5\n"
        "        dec r4\n"
        "        jnz l\n"
        "        halt\n");
}

/**
 * Snapshot sim.* counters around the timing loop and report
 * per-cycle scheduling figures plus a cycles/sec rate.
 */
class SchedCounters
{
  public:
    SchedCounters()
    {
        stats::Snapshot s = stats::Registry::instance().snapshot();
        evals0 = s.value("sim.gate_evals");
        skipped0 = s.value("sim.gate_evals_skipped");
        edges0 = s.value("sim.clock_edges");
    }

    void
    report(benchmark::State &state) const
    {
        stats::Snapshot s = stats::Registry::instance().snapshot();
        const double edges = s.value("sim.clock_edges") - edges0;
        const double evals = s.value("sim.gate_evals") - evals0;
        const double skipped =
            s.value("sim.gate_evals_skipped") - skipped0;
        if (edges > 0) {
            state.counters["evals_per_cycle"] = evals / edges;
            state.counters["skipped_per_cycle"] = skipped / edges;
        }
        state.counters["cycles_per_sec"] = benchmark::Counter(
            static_cast<double>(state.iterations()),
            benchmark::Counter::kIsRate);
    }

  private:
    double evals0 = 0;
    double skipped0 = 0;
    double edges0 = 0;
};

void
BM_ConcreteCycle(benchmark::State &state)
{
    Soc &soc = sharedSoc();
    SocRunner runner(soc);
    runner.simulator().setFullSweepMode(state.range(0) != 0);
    runner.simulator().setBackend(state.range(1) != 0
                                      ? SimBackend::Interp
                                      : SimBackend::Packed);
    runner.load(loopImage());
    runner.reset();
    const size_t gates = computeStats(soc.netlist()).trackedGates();
    SchedCounters sched;
    for (auto _ : state)
        runner.stepCycle();
    sched.report(state);
    state.SetItemsProcessed(state.iterations() * gates);
    state.counters["gates"] = static_cast<double>(gates);
}
BENCHMARK(BM_ConcreteCycle)
    ->ArgNames({"sweep", "interp"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

void
BM_SymbolicCycle(benchmark::State &state)
{
    // Same cycle loop but with unknown tainted inputs on every port.
    Soc &soc = sharedSoc();
    Simulator sim(soc.netlist());
    sim.setFullSweepMode(state.range(0) != 0);
    sim.setBackend(state.range(1) != 0 ? SimBackend::Interp
                                       : SimBackend::Packed);
    soc.loadProgram(sim.state(), loopImage());
    sim.markAllDirty();
    const SocProbes &prb = soc.probes();
    sim.setInput(prb.extReset, sigOne());
    for (unsigned p = 0; p < 4; ++p) {
        for (unsigned b = 0; b < 16; ++b)
            sim.setInput(prb.portIn[p][b], Signal{Tern::X, true});
    }
    sim.step();
    sim.setInput(prb.extReset, sigZero());
    const size_t gates = computeStats(soc.netlist()).trackedGates();
    SchedCounters sched;
    for (auto _ : state)
        sim.step();
    sched.report(state);
    state.SetItemsProcessed(state.iterations() * gates);
}
BENCHMARK(BM_SymbolicCycle)
    ->ArgNames({"sweep", "interp"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

void
BM_SymStateCapture(benchmark::State &state)
{
    Soc &soc = sharedSoc();
    Simulator sim(soc.netlist());
    SymLayout layout(soc.netlist());
    SymState s(layout);
    for (auto _ : state) {
        s.capture(layout, sim.state());
        benchmark::DoNotOptimize(s.numSlots());
    }
    state.SetItemsProcessed(state.iterations() * layout.slots());
}
BENCHMARK(BM_SymStateCapture);

void
BM_SymStateRestore(benchmark::State &state)
{
    Soc &soc = sharedSoc();
    Simulator sim(soc.netlist());
    SymLayout layout(soc.netlist());
    SymState s(layout);
    s.capture(layout, sim.state());
    for (auto _ : state) {
        s.restore(layout, sim.state());
        benchmark::DoNotOptimize(sim.state().rawNets().data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * layout.slots());
}
BENCHMARK(BM_SymStateRestore);

void
BM_SymStateSubsume(benchmark::State &state)
{
    Soc &soc = sharedSoc();
    Simulator sim(soc.netlist());
    SymLayout layout(soc.netlist());
    SymState a(layout);
    a.capture(layout, sim.state());
    SymState b = a;
    for (auto _ : state)
        benchmark::DoNotOptimize(a.subsumedBy(b));
    state.SetItemsProcessed(state.iterations() * layout.slots());
}
BENCHMARK(BM_SymStateSubsume);

void
BM_SymStateMerge(benchmark::State &state)
{
    Soc &soc = sharedSoc();
    Simulator sim(soc.netlist());
    SymLayout layout(soc.netlist());
    SymState a(layout);
    a.capture(layout, sim.state());
    SymState b = a;
    b.setSlot(0, sigBool(1, true));
    for (auto _ : state) {
        SymState m = a;
        m.mergeWith(b);
        benchmark::DoNotOptimize(m.taintCount());
    }
    state.SetItemsProcessed(state.iterations() * layout.slots());
}
BENCHMARK(BM_SymStateMerge);

void
BM_CheckpointSaveRestore(benchmark::State &state)
{
    // Round-trip a checkpoint whose frontier holds `frontier` full
    // symbolic states -- the dominant section by far, and the exact
    // payload the parallel coordinator ships per work unit. The save
    // path's thread-local scratch buffer keeps the loop
    // allocation-free after warm-up.
    Soc &soc = sharedSoc();
    Simulator sim(soc.netlist());
    SymLayout layout(soc.netlist());
    ProgramImage img = loopImage();
    EngineCheckpoint ck;
    ck.fingerprint = checkpointFingerprint(img, layout.slots(),
                                           soc.netlist().numNets());
    ck.everTainted = BitPlane(soc.netlist().numNets());
    SymState s(layout);
    s.capture(layout, sim.state());
    for (int64_t i = 0; i < state.range(0); ++i) {
        ck.frontier.emplace_back(s, static_cast<uint32_t>(i));
        ck.tree.push_back(ExecNode{});
    }
    const std::string path = "/tmp/glifs_bench_ckpt.bin";
    for (auto _ : state) {
        ck.save(path);
        EngineCheckpoint back = EngineCheckpoint::load(path);
        benchmark::DoNotOptimize(back.frontier.size());
    }
    std::remove(path.c_str());
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckpointSaveRestore)
    ->ArgNames({"frontier"})
    ->Args({1})
    ->Args({16})
    ->Args({64});

} // namespace

int
main(int argc, char **argv)
{
    // Default report in the working directory so CI picks it up as a
    // build artifact without extra plumbing (docs/OBSERVABILITY.md).
    return glifs::benchjson::benchMain(argc, argv, "sim_throughput",
                                       "BENCH_sim_throughput.json");
}
