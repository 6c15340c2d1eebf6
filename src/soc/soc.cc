#include "soc/soc.hh"

#include "base/logging.hh"
#include "netlist/validate.hh"
#include "soc/address_map.hh"
#include "soc/soc_internal.hh"

namespace glifs
{

void
socFillProbes(const SocCtx &ctx, SocProbes &prb)
{
    prb.extReset = ctx.extRst;
    for (unsigned p = 0; p < 4; ++p) {
        prb.portIn[p] = ctx.portIn[p];
        prb.portOut[p] = ctx.portOut[p].q;
    }

    prb.pcQ = ctx.pc.q;
    prb.pcFlops = ctx.pc.flops;
    prb.pcD.clear();
    for (GateId f : ctx.pc.flops)
        prb.pcD.push_back(ctx.rb.netlist().gate(f).in[0]);
    prb.stateQ = ctx.stateReg.q;
    prb.irQ = ctx.ir.q;
    prb.instrAddrQ = ctx.instrAddr.q;
    prb.spQ = ctx.sp.q;
    prb.flagsQ = ctx.flags.q;
    prb.gprQ.clear();
    for (const RegWord &r : ctx.gpr)
        prb.gprQ.push_back(r.q);
    prb.haltNet = ctx.inState(CoreState::Halt);
    prb.fetchNet = ctx.inState(CoreState::Fetch);

    prb.progMem = ctx.progMem;
    prb.dataMem = ctx.dataMem;
    prb.dmemReadAddr = ctx.dRead;
    prb.dmemWriteAddr = ctx.dWrite;
    prb.dmemWriteData = ctx.wrData;
    prb.memWriteState = ctx.memWriteState;
    prb.ramWriteEn = ctx.ramWe;

    prb.wdtWriteEn = ctx.wdtWe;
    prb.wdtCounterQ = ctx.wdtCounter.q;
    prb.wdtHoldQ = ctx.wdtHoldQ;
    prb.wdtExpired = ctx.wdtExpired;
    prb.porNet = ctx.por;
}

Soc::Soc(const SocConfig &config) : cfg(config)
{
    SocCtx ctx(nl, cfg);
    socBuildShells(ctx);
    socBuildRom(ctx);
    socBuildDecode(ctx);
    socBuildRegRead(ctx);
    socBuildAlu(ctx);
    socBuildAddressing(ctx);
    socBuildGpio(ctx);
    socBuildWatchdog(ctx);
    socBuildControl(ctx);
    socFillProbes(ctx, prb);

    // Primary outputs: the four GPIO output ports.
    for (unsigned p = 0; p < 4; ++p) {
        ctx.rb.busOutput(prb.portOut[p],
                         "p" + std::to_string(p + 1) + "out");
    }

    validateOrDie(nl);
}

Soc::~Soc() = default;

TernPlanes
Soc::programCells(const ProgramImage &image) const
{
    GLIFS_ASSERT(image.words.size() <= cfg.progWords,
                 "program image larger than program memory");
    const unsigned width = nl.memory(prb.progMem).width;
    const uint64_t all = lowMask(width);
    TernPlanes cells(cfg.progWords * width);
    for (size_t w = 0; w < cfg.progWords; ++w) {
        const uint64_t val = w < image.words.size() ? image.words[w] : 0;
        cells.setWord(w * width, width, {all, val & all, 0});
    }
    return cells;
}

void
Soc::loadProgram(SignalState &state, const ProgramImage &image) const
{
    state.memCells(prb.progMem) = programCells(image);
}

namespace
{

uint16_t
busValue(const SignalState &state, const Bus &bus)
{
    uint16_t v = 0;
    for (size_t i = 0; i < bus.size(); ++i) {
        Signal s = state.net(bus[i]);
        if (s.known() && s.asBool())
            v |= static_cast<uint16_t>(1u << i);
    }
    return v;
}

} // namespace

uint16_t
Soc::regValue(const SignalState &state, unsigned reg) const
{
    GLIFS_ASSERT(reg < iot430::kNumRegs, "bad register ", reg);
    if (reg == 0)
        return 0;
    if (reg == 1)
        return busValue(state, prb.spQ);
    return busValue(state, prb.gprQ[reg - 2]);
}

uint16_t
Soc::pcValue(const SignalState &state) const
{
    return busValue(state, prb.pcQ);
}

uint16_t
Soc::ramValue(const SignalState &state, uint16_t addr) const
{
    return static_cast<uint16_t>(
        state.memWordValue(nl, prb.dataMem, ramIndex(addr)));
}

} // namespace glifs
