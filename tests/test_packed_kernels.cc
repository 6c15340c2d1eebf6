/**
 * @file
 * Exhaustive equivalence proofs for the bit-packed GLIFT kernels
 * (sim/packed_kernels.hh) against the table-driven scalar reference
 * (logic/glift.hh), plus structural invariants of the netlist
 * compiler (netlist/compile.hh).
 *
 * The signal domain is finite -- six encodings ({0,1,X} x taint) per
 * input -- so the kernel tests enumerate *every* input combination of
 * every gate kind, packed across lanes so the same pass also proves
 * lane independence. dffNextKernel() is pinned against dffNext() over
 * all 6^4 x 2 (d, rst, en, q, rstVal) combinations. The IoT430's
 * levelized order and compiled program are pinned field by field.
 */

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <vector>

#include "logic/glift.hh"
#include "logic/ternary.hh"
#include "netlist/compile.hh"
#include "netlist/levelize.hh"
#include "sim/packed_eval.hh"
#include "sim/packed_kernels.hh"
#include "soc/soc.hh"
#include "reader_index_check.hh"

namespace glifs
{
namespace
{

using packed::Planes;

/** The six inhabitants of the Signal domain. */
const Signal kDomain[6] = {
    {Tern::Zero, false}, {Tern::One, false}, {Tern::X, false},
    {Tern::Zero, true},  {Tern::One, true},  {Tern::X, true},
};

const GateKind kAllKinds[] = {
    GateKind::Buf, GateKind::Not,  GateKind::And,
    GateKind::Nand, GateKind::Or,  GateKind::Nor,
    GateKind::Xor, GateKind::Xnor, GateKind::Mux,
};

size_t
combosOf(unsigned arity)
{
    size_t n = 1;
    for (unsigned i = 0; i < arity; ++i)
        n *= 6;
    return n;
}

TEST(PackedKernels, EveryKindMatchesGliftTablesExhaustively)
{
    const GliftTables &glift = GliftTables::instance();
    for (GateKind kind : kAllKinds) {
        const unsigned arity = gateArity(kind);
        const size_t combos = combosOf(arity);
        // Pack the enumeration 64 combos per kernel application so
        // the pass also proves lanes do not interfere.
        for (size_t base = 0; base < combos; base += 64) {
            const unsigned lanes =
                static_cast<unsigned>(std::min<size_t>(64,
                                                       combos - base));
            Planes in[3] = {};
            std::vector<std::array<Signal, 3>> scalarIn(lanes);
            for (unsigned lane = 0; lane < lanes; ++lane) {
                size_t code = base + lane;
                for (unsigned s = 0; s < arity; ++s) {
                    const Signal sig = kDomain[code % 6];
                    code /= 6;
                    scalarIn[lane][s] = sig;
                    packed::setLane(in[s], lane, sig);
                }
            }
            const Planes out =
                packed::evalKernel(kind, in[0], in[1], in[2]);
            for (unsigned lane = 0; lane < lanes; ++lane) {
                const Signal expect =
                    glift.eval(kind, scalarIn[lane].data());
                const Signal got = packed::getLane(out, lane);
                ASSERT_EQ(got, expect)
                    << gateKindName(kind) << "("
                    << scalarIn[lane][0].str() << ", "
                    << scalarIn[lane][1].str() << ", "
                    << scalarIn[lane][2].str() << "): kernel "
                    << got.str() << " vs reference " << expect.str();
            }
        }
    }
}

TEST(PackedKernels, DffNextMatchesScalarExhaustively)
{
    // All 6^4 (d, rst, en, q) combinations for both reset values.
    const size_t combos = combosOf(4);
    for (int rv = 0; rv < 2; ++rv) {
        for (size_t base = 0; base < combos; base += 64) {
            const unsigned lanes =
                static_cast<unsigned>(std::min<size_t>(64,
                                                       combos - base));
            Planes d, rst, en, q;
            std::vector<std::array<Signal, 4>> scalarIn(lanes);
            for (unsigned lane = 0; lane < lanes; ++lane) {
                size_t code = base + lane;
                Planes *slot[4] = {&d, &rst, &en, &q};
                for (unsigned s = 0; s < 4; ++s) {
                    const Signal sig = kDomain[code % 6];
                    code /= 6;
                    scalarIn[lane][s] = sig;
                    packed::setLane(*slot[s], lane, sig);
                }
            }
            const uint64_t rstVal = rv ? ~0ULL : 0;
            const Planes out =
                packed::dffNextKernel(d, rst, en, q, rstVal);
            for (unsigned lane = 0; lane < lanes; ++lane) {
                const auto &si = scalarIn[lane];
                const Signal expect =
                    dffNext(si[0], si[1], si[2], si[3], rv != 0);
                const Signal got = packed::getLane(out, lane);
                ASSERT_EQ(got, expect)
                    << "dffNext(d=" << si[0].str()
                    << ", rst=" << si[1].str() << ", en=" << si[2].str()
                    << ", q=" << si[3].str() << ", rstVal=" << rv
                    << "): kernel " << got.str() << " vs scalar "
                    << expect.str();
            }
        }
    }
}

TEST(PackedKernels, MixedRstValLanesAreIndependent)
{
    // Adjacent lanes with opposite reset values: the per-lane rstVal
    // mask must not leak across lanes. Exercise the reset-sensitive
    // corner (rst tainted or X) for every (d, q) pair.
    std::mt19937 rng(1234);
    for (int iter = 0; iter < 2000; ++iter) {
        Planes d, rst, en, q;
        uint64_t rstVal = 0;
        std::array<Signal, 4> si[64];
        for (unsigned lane = 0; lane < 64; ++lane) {
            Planes *slot[4] = {&d, &rst, &en, &q};
            for (unsigned s = 0; s < 4; ++s) {
                si[lane][s] = kDomain[rng() % 6];
                packed::setLane(*slot[s], lane, si[lane][s]);
            }
            if (rng() & 1)
                rstVal |= 1ULL << lane;
        }
        const Planes out = packed::dffNextKernel(d, rst, en, q, rstVal);
        for (unsigned lane = 0; lane < 64; ++lane) {
            const Signal expect =
                dffNext(si[lane][0], si[lane][1], si[lane][2],
                        si[lane][3], (rstVal >> lane) & 1);
            ASSERT_EQ(packed::getLane(out, lane), expect)
                << "lane " << lane << " iter " << iter;
        }
    }
}

// --- compiler invariants ---------------------------------------------

TEST(CompiledNetlist, SocProgramInvariantsHold)
{
    Soc soc;
    const Netlist &nl = soc.netlist();
    const std::vector<EvalStep> order = levelize(nl);
    const CompiledNetlist cn = compileNetlist(nl, order);

    // The slot map is a bijection: every net has a slot inside the
    // plane space and every used slot maps back to its net.
    ASSERT_EQ(cn.slotOfNet.size(), nl.numNets());
    ASSERT_EQ(cn.slotNet.size(), cn.planeWords * 64);
    size_t used = 0;
    for (uint32_t slot = 0; slot < cn.slotNet.size(); ++slot) {
        if (cn.slotNet[slot] == kNoNet)
            continue;
        ++used;
        EXPECT_EQ(cn.slotOfNet[cn.slotNet[slot]], slot);
    }
    EXPECT_EQ(used, nl.numNets());

    // Batches are well-formed: live lanes, low-bit lane masks, gather
    // ops only for real input slots and only into valid plane words.
    size_t lanes = 0;
    for (const PackedBatch &b : cn.batches) {
        ASSERT_GE(b.lanes, 1u);
        ASSERT_LE(b.lanes, 64u);
        lanes += b.lanes;
        EXPECT_EQ(b.laneMask, b.lanes == 64
                                  ? ~0ULL
                                  : (1ULL << b.lanes) - 1);
        EXPECT_LT(b.outWord, cn.planeWords);
        EXPECT_EQ(b.arity, gateArity(b.kind));
        for (unsigned s = 0; s < 3; ++s) {
            for (const PlaneOp &op : cn.opsOf(b.gather[s])) {
                EXPECT_LT(op.word, cn.planeWords);
                EXPECT_NE(op.mask & b.laneMask, 0u);
                if (s >= b.arity)
                    ADD_FAILURE() << "gather for unused input slot";
            }
        }
    }
    EXPECT_EQ(lanes, cn.combLanes);

    // The reader index marks exactly the lanes each target reads, and
    // every producer unit strictly precedes all of its consuming units,
    // so the ascending dirty-unit drain settles in one pass.
    EXPECT_TRUE(readerIndexMatchesNetlist(nl, cn));

    // Source nets fill the first words; every later word is a unit's.
    for (NetId n = 0; n < nl.numNets(); ++n) {
        EXPECT_EQ(cn.producerUnit[n] < 0,
                  (cn.slotOfNet[n] >> 6) < cn.sourceWords)
            << "net " << n;
    }

    // Dff words cover every flip-flop exactly once.
    size_t dffLanes = 0;
    for (const DffWord &dw : cn.dffWords) {
        ASSERT_GE(dw.lanes, 1u);
        ASSERT_LE(dw.lanes, 64u);
        dffLanes += dw.lanes;
        EXPECT_LT(dw.qWord, cn.planeWords);
        EXPECT_EQ(dw.rstVal & ~dw.laneMask, 0u);
    }
    EXPECT_EQ(dffLanes, nl.dffs().size());
}

/** FNV-1a over whole integers, so struct padding never enters it. */
class FieldHash
{
  public:
    FieldHash &
    add(uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
        return *this;
    }

    FieldHash &
    add(const OpRange &r)
    {
        return add(r.begin).add(r.end);
    }

    uint64_t value() const { return h; }

  private:
    uint64_t h = 0xcbf29ce484222325ULL;
};

/** Hash of a vector's length and of @p fields folded per element. */
template <typename T, typename Fields>
uint64_t
hashEach(const std::vector<T> &v, Fields fields)
{
    FieldHash h;
    h.add(v.size());
    for (const T &x : v)
        fields(h, x);
    return h.value();
}

template <typename T>
uint64_t
hashInts(const std::vector<T> &v)
{
    return hashEach(v, [](FieldHash &h, T x) {
        h.add(static_cast<uint64_t>(x));
    });
}

TEST(CompiledNetlist, SocProgramIsPinned)
{
    // The schedule, unit assignment, slot permutation and gather
    // programs decide every simulated settle, and with them the sim.*
    // stats and reports: a change to how they are built must leave each
    // field at its hash. Re-pin only for an intended program change.
    Soc soc;
    const std::vector<EvalStep> order = levelize(soc.netlist());
    const CompiledNetlist cn = compileNetlist(soc.netlist(), order);

    EXPECT_EQ(hashEach(order,
                       [](FieldHash &h, const EvalStep &s) {
                           h.add(static_cast<uint64_t>(s.kind))
                               .add(s.index);
                       }),
              0xdd8f3b614a212141ULL);
    EXPECT_EQ(cn.planeWords, 189u);
    EXPECT_EQ(cn.sourceWords, 9u);
    EXPECT_EQ(cn.combLanes, 2865u);
    EXPECT_EQ(hashEach(cn.ops,
                       [](FieldHash &h, const PlaneOp &op) {
                           h.add(op.word).add(op.rot).add(op.mask);
                       }),
              0x1f18e4303b93eec6ULL);
    EXPECT_EQ(hashEach(cn.batches,
                       [](FieldHash &h, const PackedBatch &b) {
                           h.add(static_cast<uint64_t>(b.kind))
                               .add(b.arity)
                               .add(b.lanes)
                               .add(b.outWord)
                               .add(b.laneMask)
                               .add(b.gather[0])
                               .add(b.gather[1])
                               .add(b.gather[2]);
                       }),
              0x7c32b1f3bf350302ULL);
    EXPECT_EQ(hashEach(cn.units,
                       [](FieldHash &h, const EvalUnit &u) {
                           h.add(static_cast<uint64_t>(u.kind))
                               .add(u.index);
                       }),
              0xf3454259d4c5c7b1ULL);
    EXPECT_EQ(hashEach(cn.dffWords,
                       [](FieldHash &h, const DffWord &dw) {
                           h.add(dw.lanes)
                               .add(dw.qWord)
                               .add(dw.laneMask)
                               .add(dw.rstVal)
                               .add(dw.gatherD)
                               .add(dw.gatherRst)
                               .add(dw.gatherEn);
                       }),
              0xa5ad8e456fc7e6d8ULL);
    EXPECT_EQ(hashInts(cn.unitOfMem), 0xa6d57a48ae15d831ULL);
    EXPECT_EQ(hashInts(cn.memReadWord), 0xb59e63c4a2f10351ULL);
    EXPECT_EQ(hashInts(cn.producerUnit), 0x4e9d78ae0d8d5dc0ULL);
    EXPECT_EQ(hashInts(cn.slotOfNet), 0x429cd8a66f9d839eULL);
    EXPECT_EQ(hashInts(cn.slotNet), 0xfbc84cd8d26349ebULL);
    EXPECT_EQ(hashInts(cn.readerOffsets), 0xd9eee9549565b79dULL);
    EXPECT_EQ(hashEach(cn.readers,
                       [](FieldHash &h, const WordReader &r) {
                           h.add(r.target).add(r.lanes);
                       }),
              0x74cbe610d86a4ae2ULL);
}

TEST(PackedEvalState, PlanesRoundTripEverySignal)
{
    Soc soc;
    const Netlist &nl = soc.netlist();
    PackedEval pe(nl, levelize(nl));
    const CompiledNetlist &cn = pe.program();

    // A fresh program holds what a fresh SignalState does: every
    // constant net at its value, every other net untainted X. Every
    // unit and every dff word is marked, so the first settle runs every
    // unit and the first edge latches every word.
    const SignalState fresh(nl);
    for (NetId n = 0; n < nl.numNets(); ++n)
        ASSERT_EQ(pe.signalAt(n), fresh.net(n)) << "net " << n;
    size_t units = 0;
    for (uint64_t w : pe.unitDirtyWords())
        units += std::popcount(w);
    size_t dffWords = 0;
    for (uint64_t w : pe.dffDirtyWords())
        dffWords += std::popcount(w);
    EXPECT_EQ(units, cn.units.size());
    EXPECT_EQ(dffWords, cn.dffWords.size());

    // Point writes land in the planes, and exportNets decodes every
    // net back.
    SignalState want(nl);
    std::mt19937 rng(99);
    const Tern v[] = {Tern::Zero, Tern::One, Tern::X};
    for (NetId n = 0; n < nl.numNets(); ++n) {
        const Signal s{v[rng() % 3], (rng() & 4) != 0};
        want.setNet(n, s);
        pe.setNetPlanes(n, s);
        ASSERT_EQ(pe.signalAt(n), s);
    }
    SignalState out(nl);
    pe.exportNets(out);
    for (NetId n = 0; n < nl.numNets(); ++n)
        ASSERT_EQ(out.net(n), want.net(n)) << "net " << n;
}

} // namespace
} // namespace glifs
