#include "soc/runner.hh"

#include "base/logging.hh"

namespace glifs
{

SocRunner::SocRunner(const Soc &soc) : socRef(soc), sim(soc.netlist())
{
}

void
SocRunner::load(const ProgramImage &image)
{
    // A tracked write: a reload after cycles have run marks the read
    // port, so the next settle fetches from the new image.
    sim.setMemCells(socRef.probes().progMem, socRef.programCells(image),
                    0);
}

void
SocRunner::setPortInput(unsigned port, uint16_t value)
{
    GLIFS_ASSERT(port >= 1 && port <= 4, "bad port ", port);
    fixedIn[port - 1] = value;
}

void
SocRunner::driveInputs(bool reset_asserted)
{
    const SocProbes &prb = socRef.probes();
    sim.setInput(prb.extReset, sigBool(reset_asserted));
    for (unsigned p = 0; p < 4; ++p) {
        uint16_t v = stim ? stim(p + 1, sim.cycle()) : fixedIn[p];
        for (unsigned b = 0; b < 16; ++b)
            sim.setInput(prb.portIn[p][b], sigBool((v >> b) & 1u));
    }
}

void
SocRunner::reset()
{
    driveInputs(true);
    sim.step();
    // During the reset cycle the FSM state was still unknown, so the
    // conservative memory model X-merged the RAM (a write with unknown
    // enable could have happened). Concrete runs model power-up SRAM as
    // zero-filled; establish that now that every flop is known. The
    // symbolic analysis (src/ift) instead leaves RAM as unknown X.
    const Netlist &nl = socRef.netlist();
    MemId ram = socRef.probes().dataMem;
    for (size_t w = 0; w < nl.memory(ram).words; ++w)
        sim.setMemWord(ram, w, 0);
}

void
SocRunner::stepCycle()
{
    driveInputs(false);
    sim.step();
}

bool
SocRunner::halted() const
{
    // Read the state register directly: its flop outputs are fresh right
    // after a clock edge, while comb nets (like haltNet) are not
    // re-evaluated until the next cycle's evalComb().
    const Bus &st = socRef.probes().stateQ;
    uint16_t v = 0;
    for (size_t i = 0; i < st.size(); ++i) {
        Signal s = sim.netValue(st[i]);
        if (!s.known())
            return false;
        if (s.asBool())
            v |= static_cast<uint16_t>(1u << i);
    }
    return v == static_cast<uint16_t>(CoreState::Halt);
}

uint64_t
SocRunner::runToHalt(uint64_t max_cycles)
{
    uint64_t start = sim.cycle();
    while (!halted()) {
        if (sim.cycle() - start >= max_cycles)
            GLIFS_FATAL("program did not halt within ", max_cycles,
                        " cycles");
        stepCycle();
    }
    return sim.cycle() - start;
}

void
SocRunner::run(uint64_t cycles)
{
    for (uint64_t i = 0; i < cycles; ++i)
        stepCycle();
}

uint16_t
SocRunner::reg(unsigned r) const
{
    return socRef.regValue(sim.state(), r);
}

uint16_t
SocRunner::pc() const
{
    return socRef.pcValue(sim.state());
}

uint16_t
SocRunner::ram(uint16_t addr) const
{
    return socRef.ramValue(sim.state(), addr);
}

uint16_t
SocRunner::portOut(unsigned port) const
{
    GLIFS_ASSERT(port >= 1 && port <= 4, "bad port ", port);
    uint16_t v = 0;
    const Bus &bus = socRef.probes().portOut[port - 1];
    for (unsigned b = 0; b < 16; ++b) {
        Signal s = sim.netValue(bus[b]);
        if (s.known() && s.asBool())
            v |= static_cast<uint16_t>(1u << b);
    }
    return v;
}

} // namespace glifs
