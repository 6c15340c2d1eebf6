/**
 * @file
 * Simulator-throughput ablation (supporting bench, not a paper table):
 * gate-evaluations per second of the GLIFT simulator in concrete and
 * symbolic operation, and the cost of symbolic state capture/restore/
 * merge -- the primitives the analysis engine's runtime (footnote 4)
 * is built from.
 *
 * BM_ConcreteCycle runs a concrete loop on the compiled, event-driven
 * Simulator, and BM_ReferenceCycle the same loop on ReferenceSim, the
 * full-sweep table interpreter the differential tests compare against
 * (DESIGN.md "Compiled event-driven evaluation"); CI normalizes by the
 * latter. BM_SegmentReplay replays recorded tHold segments through
 * PathSim::runSegment, the engine's own cycle loop, so its
 * evals_per_cycle is the symbolic work an audit actually does. Cycle
 * rows report cycles_per_sec and, from the sim.* stats registry
 * deltas, evals_per_cycle / skipped_per_cycle, which
 * BENCH_sim_throughput.json records side by side. BM_AuditSetup times
 * what one audit pays before its first cycle and reports time only.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "assembler/assembler.hh"
#include "base/stats.hh"
#include "bench_common.hh"
#include "ift/checkpoint.hh"
#include "ift/path_sim.hh"
#include "ift/symstate.hh"
#include "netlist/stats.hh"
#include "sim/reference_sim.hh"
#include "soc/runner.hh"
#include "soc/soc.hh"
#include "workloads/workload.hh"

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
    }

    /** @p cycles: simulated cycles in the timing loop. */
    void
    report(benchmark::State &state, double cycles) const
    {
        stats::Snapshot s = stats::Registry::instance().snapshot();
        const double evals = s.value("sim.gate_evals") - evals0;
        const double skipped =
            s.value("sim.gate_evals_skipped") - skipped0;
        // ReferenceSim records no stats: no scheduling figures.
        if (cycles > 0 && evals + skipped > 0) {
            state.counters["evals_per_cycle"] = evals / cycles;
            state.counters["skipped_per_cycle"] = skipped / cycles;
        }
        state.counters["cycles_per_sec"] =
            benchmark::Counter(cycles, benchmark::Counter::kIsRate);
    }

  private:
    double evals0 = 0;
    double skipped0 = 0;
};

void
BM_ConcreteCycle(benchmark::State &state)
{
    Soc &soc = sharedSoc();
    SocRunner runner(soc);
    runner.load(loopImage());
    runner.reset();
    const size_t gates = computeStats(soc.netlist()).trackedGates();
    SchedCounters sched;
    for (auto _ : state)
        runner.stepCycle();
    sched.report(state, static_cast<double>(state.iterations()));
    state.SetItemsProcessed(state.iterations() * gates);
    state.counters["gates"] = static_cast<double>(gates);
}
BENCHMARK(BM_ConcreteCycle);

/** SocRunner's concrete input drive (ports at 0) on the reference. */
void
driveConcrete(ReferenceSim &sim, bool reset)
{
    const SocProbes &prb = sharedSoc().probes();
    sim.setInput(prb.extReset, sigBool(reset));
    for (unsigned p = 0; p < 4; ++p) {
        for (unsigned b = 0; b < 16; ++b)
            sim.setInput(prb.portIn[p][b], sigZero());
    }
}

void
BM_ReferenceCycle(benchmark::State &state)
{
    // BM_ConcreteCycle's loop, one SocRunner::stepCycle() per
    // iteration, on the full-sweep table interpreter.
    Soc &soc = sharedSoc();
    ReferenceSim sim(soc.netlist());
    soc.loadProgram(sim.state(), loopImage());
    driveConcrete(sim, true);
    sim.step();
    const MemId ram = soc.probes().dataMem;
    for (size_t w = 0; w < soc.netlist().memory(ram).words; ++w)
        sim.setMemWord(ram, w, 0);
    const size_t gates = computeStats(soc.netlist()).trackedGates();
    SchedCounters sched;
    for (auto _ : state) {
        driveConcrete(sim, false);
        sim.step();
    }
    sched.report(state, static_cast<double>(state.iterations()));
    state.SetItemsProcessed(state.iterations() * gates);
}
BENCHMARK(BM_ReferenceCycle);

/**
 * Up to @p limit segment starts along one tHold path: from the
 * engine's post-reset state, follow each segment's commit, and at an
 * unknown PC take the first candidate successor.
 */
std::vector<SymState>
recordSegmentStarts(PathSim &ps, size_t limit)
{
    ps.loadProgram();
    ps.setInputs(true);
    ps.sim.step();
    SymState s(ps.layout);
    s.capture(ps.layout, ps.sim);
    std::vector<SymState> starts;
    while (starts.size() < limit) {
        starts.push_back(s);
        SegmentResult r = ps.runSegment(s);
        if (r.halted)
            break;
        if (!r.pcUnknown) {
            s = std::move(r.end);
            continue;
        }
        bool overflow = false;
        const std::vector<uint16_t> pcs =
            ps.candidatePcs(r.endInstr, r.end, overflow);
        if (pcs.empty())
            break;
        s = ps.concretizePc(r.end, pcs.front());
    }
    return starts;
}

void
BM_SegmentReplay(benchmark::State &state)
{
    // The symbolic cycle as the engine runs it: restore a recorded
    // segment start, then settle, check and clock to its end.
    static const Workload &w = workloadByName("tHold");
    static const Policy policy = w.policy();
    static const ProgramImage image = w.image();
    PathSim ps(sharedSoc(), policy, EngineConfig{}, image);
    const std::vector<SymState> starts = recordSegmentStarts(ps, 64);
    SchedCounters sched;
    uint64_t cycles = 0;
    size_t next = 0;
    for (auto _ : state) {
        const SegmentResult r = ps.runSegment(starts[next]);
        benchmark::DoNotOptimize(r.cycles);
        cycles += r.cycles;
        next = (next + 1) % starts.size();
    }
    sched.report(state, static_cast<double>(cycles));
    state.counters["segments"] = static_cast<double>(starts.size());
}
BENCHMARK(BM_SegmentReplay);

void
BM_SymStateCapture(benchmark::State &state)
{
    // The engine's capture: flops read from the planes, memories
    // copied a plane word at a time.
    Soc &soc = sharedSoc();
    Simulator sim(soc.netlist());
    SymLayout layout(soc.netlist());
    SymState s(layout);
    for (auto _ : state) {
        s.capture(layout, sim);
        benchmark::DoNotOptimize(s.numSlots());
    }
    state.SetItemsProcessed(state.iterations() * layout.slots());
}
BENCHMARK(BM_SymStateCapture);

void
BM_SymStateRestore(benchmark::State &state)
{
    // The engine's restore, through the simulator's tracked setters.
    Soc &soc = sharedSoc();
    Simulator sim(soc.netlist());
    SymLayout layout(soc.netlist());
    SymState s(layout);
    s.capture(layout, sim);
    for (auto _ : state) {
        s.restore(layout, sim);
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
    a.capture(layout, sim);
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
    a.capture(layout, sim);
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
BM_AuditSetup(benchmark::State &state)
{
    // One firmware's set-up as glifs_audit pays it before its first
    // simulated cycle: elaborate (and validate) the SoC, take the
    // default labels, assemble mult, build the PathSim (levelize,
    // compile, symbolic layout, checker) and load the program. A fresh
    // Soc per iteration, as every audit process builds one.
    const std::string source = workloadByName("mult").source();
    for (auto _ : state) {
        const Soc soc;
        const Policy policy = benchmarkPolicy(kTaskBase, kTaskEnd);
        const ProgramImage img = assemble(parseSource(source));
        PathSim ps(soc, policy, EngineConfig{}, img);
        ps.loadProgram();
        benchmark::DoNotOptimize(ps.sim.planeWords());
    }
}
BENCHMARK(BM_AuditSetup)->Unit(benchmark::kMillisecond);

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
    s.capture(layout, sim);
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
