#include "netlist/compile.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "base/logging.hh"

namespace glifs
{

namespace
{

constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);
constexpr uint32_t kNone = static_cast<uint32_t>(-1);

/**
 * Emits gather programs: the program moving the nets at given slots
 * (one per lane, lane order) into a lane-indexed word. A slot shared
 * by several lanes becomes one broadcast op; the remaining slots
 * become rotate ops, with consecutive lanes reading consecutive bits
 * of one word sharing a single (word, rot) op, so bus-structured
 * operands stay compact. Ops come in the order of their first lane.
 *
 * Two tables over the whole slot space (the (word, rot) keys share
 * its size) find a slot's lane group and a (word, rot)'s op in
 * constant time; each program resets the entries it set.
 */
class GatherEmitter
{
  public:
    GatherEmitter(std::vector<PlaneOp> &pool, size_t slotSpace)
        : pool(pool), groupOf(slotSpace, kNone), opOf(slotSpace, kNone)
    {
    }

    void
    emit(OpRange &range, std::span<const uint32_t> slots)
    {
        range.begin = static_cast<uint32_t>(pool.size());
        groups.clear();
        for (size_t lane = 0; lane < slots.size(); ++lane) {
            uint32_t &g = groupOf[slots[lane]];
            if (g == kNone) {
                g = static_cast<uint32_t>(groups.size());
                groups.push_back({slots[lane], 0});
            }
            groups[g].mask |= 1ULL << lane;
        }
        for (const Group &s : groups) {
            groupOf[s.slot] = kNone;
            const uint32_t word = s.slot >> 6;
            const unsigned bit = s.slot & 63;
            if (std::popcount(s.mask) > 1) {
                pool.push_back(
                    {word, static_cast<uint8_t>(PlaneOp::kBroadcast | bit),
                     s.mask});
                continue;
            }
            const unsigned lane =
                static_cast<unsigned>(std::countr_zero(s.mask));
            const uint8_t rot = static_cast<uint8_t>((lane - bit) & 63);
            uint32_t &op = opOf[(word << 6) | rot];
            if (op != kNone) {
                pool[op].mask |= s.mask;
                continue;
            }
            op = static_cast<uint32_t>(pool.size());
            pool.push_back({word, rot, s.mask});
        }
        range.end = static_cast<uint32_t>(pool.size());
        for (const PlaneOp &op : std::span(pool).subspan(range.begin)) {
            if (!(op.rot & PlaneOp::kBroadcast))
                opOf[(op.word << 6) | op.rot] = kNone;
        }
    }

  private:
    /** The lanes reading one source slot. */
    struct Group
    {
        uint32_t slot;
        uint64_t mask;
    };

    std::vector<PlaneOp> &pool;
    std::vector<Group> groups;
    std::vector<uint32_t> groupOf;  ///< slot -> index into groups
    std::vector<uint32_t> opOf;     ///< (word << 6 | rot) -> pool index
};

} // namespace

CompiledNetlist
compileNetlist(const Netlist &nl, const std::vector<EvalStep> &order)
{
    CompiledNetlist cn;
    cn.producerUnit.assign(nl.numNets(), -1);
    cn.unitOfMem.assign(nl.numMemories(), 0);
    cn.memReadWord.assign(nl.numMemories(), 0);
    cn.slotOfNet.assign(nl.numNets(), kNoSlot);

    // ---- unit assignment -------------------------------------------
    // Walk the (topological) levelized schedule. Each gate joins the
    // most recent open batch of its kind if that batch is scheduled
    // strictly after every unit producing one of the gate's inputs;
    // otherwise a fresh batch opens at the end of the unit sequence.
    // Memory read ports become their own units in place. This packs
    // across levels (producers and consumers of the same kind land in
    // different batches, unrelated gates share one), which matters on
    // deep carry chains where a per-level batching would fragment.
    struct OpenBatch
    {
        int32_t unit = -1;
        uint32_t batch = 0;
        uint32_t count = 0;
    };
    std::array<OpenBatch, 9> open;
    std::vector<std::vector<GateId>> batchGates;

    auto producerOf = [&](NetId net) -> int32_t {
        return net == kNoNet ? -1 : cn.producerUnit[net];
    };

    for (const EvalStep &step : order) {
        if (step.kind == EvalStep::Kind::MemRead) {
            const int32_t unit =
                static_cast<int32_t>(cn.units.size());
            cn.units.push_back(
                {EvalUnit::Kind::MemRead, step.index});
            cn.unitOfMem[step.index] =
                static_cast<uint32_t>(unit);
            for (NetId rd : nl.memory(step.index).readData)
                cn.producerUnit[rd] = unit;
            continue;
        }
        const GateId gid = step.index;
        const Gate &g = nl.gate(gid);
        const unsigned arity = gateArity(g.kind);
        int32_t minUnit = -1;
        for (unsigned i = 0; i < arity; ++i)
            minUnit = std::max(minUnit, producerOf(g.in[i]));

        OpenBatch &ob = open[static_cast<size_t>(g.kind)];
        if (ob.unit <= minUnit || ob.count >= 64) {
            // Open a new batch at the end of the schedule.
            ob.unit = static_cast<int32_t>(cn.units.size());
            ob.batch = static_cast<uint32_t>(batchGates.size());
            ob.count = 0;
            batchGates.emplace_back().reserve(64);
            cn.units.push_back({EvalUnit::Kind::Batch, ob.batch});
        }
        batchGates[ob.batch].push_back(gid);
        ++ob.count;
        cn.producerUnit[g.out] = ob.unit;
    }
    cn.batches.resize(batchGates.size());

    // ---- slot assignment -------------------------------------------
    auto allocWord = [&] {
        const uint32_t w = static_cast<uint32_t>(cn.planeWords++);
        return w;
    };
    auto placeNet = [&](NetId net, uint32_t slot) {
        GLIFS_ASSERT(cn.slotOfNet[net] == kNoSlot,
                     "compile: net ", net, " placed twice");
        cn.slotOfNet[net] = slot;
    };

    // Flip-flop Q outputs first: chunks of 64 in Q-net order, each
    // chunk owning one whole word so the edge commit is a word write.
    std::vector<GateId> dffs(nl.dffs());
    std::sort(dffs.begin(), dffs.end(), [&](GateId x, GateId y) {
        return nl.gate(x).out < nl.gate(y).out;
    });
    for (size_t base = 0; base < dffs.size(); base += 64) {
        const size_t n = std::min<size_t>(64, dffs.size() - base);
        DffWord dw;
        dw.lanes = static_cast<uint8_t>(n);
        dw.qWord = allocWord();
        dw.laneMask = n == 64 ? ~0ULL : (1ULL << n) - 1;
        for (size_t l = 0; l < n; ++l) {
            const Gate &g = nl.gate(dffs[base + l]);
            placeNet(g.out, (dw.qWord << 6) +
                            static_cast<uint32_t>(l));
            if (g.rstVal)
                dw.rstVal |= 1ULL << l;
        }
        cn.dffWords.push_back(dw);
    }

    // Remaining sources (primary inputs, constants, undriven nets):
    // packed in net order. Memory read-data nets get their slots when
    // their unit is processed below.
    {
        uint32_t word = kNoSlot;
        unsigned bit = 64;
        for (NetId n = 0; n < nl.numNets(); ++n) {
            if (cn.producerUnit[n] >= 0 || cn.slotOfNet[n] != kNoSlot)
                continue;
            if (bit == 64) {
                word = allocWord();
                bit = 0;
            }
            placeNet(n, (word << 6) + bit++);
        }
    }
    cn.sourceWords = cn.planeWords;

    // ---- per-unit lowering ------------------------------------------
    // Units are processed in schedule order, so every input of a unit
    // already has its slot. Batch lanes are ordered by the slot of
    // their most distinguishing input (the one with the most distinct
    // nets), which lines bus-structured operands up into runs; the
    // output word simply inherits that order. Every unit owns one
    // word, so the slot space is known before the first gather.
    GatherEmitter gather(cn.ops, (cn.planeWords + cn.units.size()) * 64);
    std::vector<uint32_t> seenIn(nl.numNets(), 0);
    uint32_t seenStamp = 0;
    std::vector<uint64_t> laneKeys;
    std::vector<uint32_t> slots;
    for (const EvalUnit &u : cn.units) {
        if (u.kind == EvalUnit::Kind::MemRead) {
            const MemoryDecl &decl = nl.memory(u.index);
            GLIFS_ASSERT(decl.width <= 64, "mem width > 64");
            const uint32_t w = allocWord();
            cn.memReadWord[u.index] = w;
            for (unsigned b = 0; b < decl.width; ++b)
                placeNet(decl.readData[b], (w << 6) + b);
            continue;
        }
        std::vector<GateId> &gates = batchGates[u.index];
        GLIFS_ASSERT(!gates.empty() && gates.size() <= 64,
                     "bad batch size ", gates.size());
        PackedBatch &pb = cn.batches[u.index];
        pb.kind = nl.gate(gates[0]).kind;
        pb.arity = static_cast<uint8_t>(gateArity(pb.kind));
        pb.lanes = static_cast<uint8_t>(gates.size());
        pb.laneMask =
            gates.size() == 64 ? ~0ULL : (1ULL << gates.size()) - 1;
        cn.combLanes += gates.size();

        unsigned key = 0;
        size_t bestDistinct = 0;
        for (unsigned s = 0; s < pb.arity; ++s) {
            ++seenStamp;
            size_t distinct = 0;
            for (GateId g : gates) {
                uint32_t &seen = seenIn[nl.gate(g).in[s]];
                distinct += seen != seenStamp;
                seen = seenStamp;
            }
            if (distinct > bestDistinct) {
                bestDistinct = distinct;
                key = s;
            }
        }
        // Sort by (key input slot, output net) as one integer.
        laneKeys.resize(gates.size());
        for (size_t l = 0; l < gates.size(); ++l) {
            const Gate &g = nl.gate(gates[l]);
            laneKeys[l] = uint64_t{cn.slotOfNet[g.in[key]]} << 32 | g.out;
        }
        std::sort(laneKeys.begin(), laneKeys.end());
        for (size_t l = 0; l < gates.size(); ++l)
            gates[l] = nl.driverOf(static_cast<NetId>(laneKeys[l]));

        pb.outWord = allocWord();
        for (size_t l = 0; l < gates.size(); ++l) {
            placeNet(nl.gate(gates[l]).out,
                     (pb.outWord << 6) + static_cast<uint32_t>(l));
        }
        slots.resize(gates.size());
        for (unsigned s = 0; s < pb.arity; ++s) {
            for (size_t l = 0; l < gates.size(); ++l)
                slots[l] = cn.slotOfNet[nl.gate(gates[l]).in[s]];
            gather.emit(pb.gather[s], slots);
        }
    }

    // ---- flip-flop edge gathers ------------------------------------
    for (size_t wi = 0; wi < cn.dffWords.size(); ++wi) {
        DffWord &dw = cn.dffWords[wi];
        const size_t base = wi * 64;
        slots.resize(dw.lanes);
        auto emitSlot = [&](OpRange &range, unsigned in) {
            for (size_t l = 0; l < dw.lanes; ++l)
                slots[l] =
                    cn.slotOfNet[nl.gate(dffs[base + l]).in[in]];
            gather.emit(range, slots);
        };
        emitSlot(dw.gatherD, 0);
        emitSlot(dw.gatherRst, 1);
        emitSlot(dw.gatherEn, 2);
    }

    // ---- slot -> net reverse map -----------------------------------
    cn.slotNet.assign(cn.planeWords * 64, kNoNet);
    for (NetId n = 0; n < nl.numNets(); ++n) {
        GLIFS_ASSERT(cn.slotOfNet[n] != kNoSlot,
                     "compile: net ", n, " has no slot");
        cn.slotNet[cn.slotOfNet[n]] = n;
    }

    // ---- plane word -> reader index ---------------------------------
    // One pass over the targets in ascending order: every gather op
    // reads the lanes rotr(mask, rot) of its word (one lane for a
    // broadcast), a read port its address slots, a dff word its own Q
    // word. A target's entries are merged per word, then bucketed by
    // word, which keeps each bucket in ascending target order.
    const uint32_t numUnits = static_cast<uint32_t>(cn.units.size());
    struct Entry
    {
        uint32_t word;
        WordReader reader;
    };
    /** The last target reading a word, and its entry. */
    struct LastReader
    {
        uint32_t target = kNone;
        uint32_t entry = 0;
    };
    std::vector<Entry> entries;
    std::vector<uint32_t> counts(cn.planeWords, 0);
    std::vector<LastReader> last(cn.planeWords);
    auto add = [&](uint32_t target, uint32_t word, uint64_t lanes) {
        LastReader &lr = last[word];
        if (lr.target == target) {
            entries[lr.entry].reader.lanes |= lanes;
            return;
        }
        lr = {target, static_cast<uint32_t>(entries.size())};
        entries.push_back({word, {target, lanes}});
        ++counts[word];
    };
    auto addOps = [&](uint32_t target, const OpRange &range) {
        for (const PlaneOp &op : cn.opsOf(range)) {
            add(target, op.word,
                op.rot & PlaneOp::kBroadcast
                    ? 1ULL << (op.rot & 63)
                    : std::rotr(op.mask, op.rot));
        }
    };
    for (uint32_t u = 0; u < numUnits; ++u) {
        const EvalUnit &unit = cn.units[u];
        if (unit.kind == EvalUnit::Kind::MemRead) {
            for (NetId a : nl.memory(unit.index).readAddr) {
                if (a != kNoNet) {
                    add(u, cn.slotOfNet[a] >> 6,
                        1ULL << (cn.slotOfNet[a] & 63));
                }
            }
            continue;
        }
        const PackedBatch &pb = cn.batches[unit.index];
        for (unsigned s = 0; s < pb.arity; ++s)
            addOps(u, pb.gather[s]);
    }
    for (uint32_t i = 0; i < cn.dffWords.size(); ++i) {
        const DffWord &dw = cn.dffWords[i];
        addOps(numUnits + i, dw.gatherD);
        addOps(numUnits + i, dw.gatherRst);
        addOps(numUnits + i, dw.gatherEn);
        add(numUnits + i, dw.qWord, dw.laneMask);
    }
    cn.readerOffsets.assign(cn.planeWords + 1, 0);
    for (size_t w = 0; w < cn.planeWords; ++w)
        cn.readerOffsets[w + 1] = cn.readerOffsets[w] + counts[w];
    cn.readers.resize(entries.size());
    std::vector<uint32_t> cursor(cn.readerOffsets.begin(),
                                 cn.readerOffsets.end() - 1);
    for (const Entry &e : entries)
        cn.readers[cursor[e.word]++] = e.reader;

    // Every unit reading a unit's output word must be scheduled
    // strictly after it; the ascending dirty-unit drain relies on it.
    for (uint32_t u = 0; u < numUnits; ++u) {
        const EvalUnit &unit = cn.units[u];
        const uint32_t word = unit.kind == EvalUnit::Kind::Batch
                                  ? cn.batches[unit.index].outWord
                                  : cn.memReadWord[unit.index];
        for (const WordReader &r : cn.readersOf(word)) {
            GLIFS_ASSERT(r.target >= numUnits || r.target > u,
                         "compile: unit order violated on word ", word);
        }
    }
    return cn;
}

} // namespace glifs
