#include "sim/packed_eval.hh"

#include <bit>

namespace glifs
{

using packed::Planes;

PackedEval::PackedEval(const Netlist &nl,
                       const std::vector<EvalStep> &order)
    : cn(compileNetlist(nl, order)),
      numUnits(static_cast<uint32_t>(cn.units.size()))
{
    vlo.assign(cn.planeWords, ~0ULL);
    vhi.assign(cn.planeWords, ~0ULL);
    vtnt.assign(cn.planeWords, 0);
    unitDirty.assign((cn.units.size() + 63) / 64, 0);
    dffDirty.assign((cn.dffWords.size() + 63) / 64, 0);
    dffNextQ.resize(cn.dffWords.size());
    for (uint32_t t = 0; t < numUnits + cn.dffWords.size(); ++t)
        markTarget(t);
    for (const Gate &g : nl.gates()) {
        if (g.type == GateType::Const)
            setNetPlanes(g.out, sigBool(g.constVal));
    }
}

void
PackedEval::exportNets(SignalState &sigs) const
{
    for (size_t w = 0; w < cn.planeWords; ++w) {
        const Planes p{vlo[w], vhi[w], vtnt[w]};
        for (unsigned lane = 0; lane < 64; ++lane) {
            const NetId n = cn.slotNet[(w << 6) + lane];
            if (n != kNoNet)
                sigs.setNet(n, packed::getLane(p, lane));
        }
    }
}

void
PackedEval::orTaint(std::vector<uint64_t> &acc) const
{
    for (size_t w = 0; w < vtnt.size(); ++w)
        acc[w] |= vtnt[w];
}

Planes
PackedEval::gather(const OpRange &r) const
{
    Planes p;
    for (const PlaneOp &op : cn.opsOf(r)) {
        if (op.rot & PlaneOp::kBroadcast) {
            const unsigned b = op.rot & 63;
            p.lo |= (0 - ((vlo[op.word] >> b) & 1)) & op.mask;
            p.hi |= (0 - ((vhi[op.word] >> b) & 1)) & op.mask;
            p.tnt |= (0 - ((vtnt[op.word] >> b) & 1)) & op.mask;
        } else {
            p.lo |= std::rotl(vlo[op.word], op.rot) & op.mask;
            p.hi |= std::rotl(vhi[op.word], op.rot) & op.mask;
            p.tnt |= std::rotl(vtnt[op.word], op.rot) & op.mask;
        }
    }
    return p;
}

PackedEval::StoreDiff
PackedEval::storeWord(uint32_t w, uint64_t mask, const Planes &out)
{
    const uint64_t nLo = (vlo[w] & ~mask) | (out.lo & mask);
    const uint64_t nHi = (vhi[w] & ~mask) | (out.hi & mask);
    const uint64_t nTnt = (vtnt[w] & ~mask) | (out.tnt & mask);
    StoreDiff d;
    d.toggled = (vlo[w] ^ nLo) | (vhi[w] ^ nHi);
    d.changed = d.toggled | (vtnt[w] ^ nTnt);
    if (!d.changed)
        return d;
    vlo[w] = nLo;
    vhi[w] = nHi;
    vtnt[w] = nTnt;
    markReaders(w, d.changed);
    return d;
}

size_t
PackedEval::runBatch(uint32_t batch)
{
    const PackedBatch &pb = cn.batches[batch];
    Planes in[3];
    for (unsigned s = 0; s < pb.arity; ++s)
        in[s] = gather(pb.gather[s]);
    const Planes out = packed::evalKernel(pb.kind, in[0], in[1], in[2]);
    return std::popcount(storeWord(pb.outWord, pb.laneMask, out).toggled);
}

void
PackedEval::storeMemRead(MemId m, unsigned width, const TernWord &data)
{
    // TernWord -> lo/hi: known 1 is (0,1), known 0 is (1,0), X is (1,1).
    const Planes p{~(data.known & data.value), ~data.known | data.value,
                   data.taint};
    storeWord(cn.memReadWord[m], lowMask(width), p);
}

void
PackedEval::computeDffWord(uint32_t i)
{
    const DffWord &dw = cn.dffWords[i];
    const Planes q = {vlo[dw.qWord], vhi[dw.qWord], vtnt[dw.qWord]};
    dffNextQ[i] = packed::dffNextKernel(gather(dw.gatherD),
                                        gather(dw.gatherRst),
                                        gather(dw.gatherEn), q,
                                        dw.rstVal);
}

size_t
PackedEval::commitDffWord(uint32_t i)
{
    const DffWord &dw = cn.dffWords[i];
    return std::popcount(
        storeWord(dw.qWord, dw.laneMask, dffNextQ[i]).toggled);
}

} // namespace glifs
