#include "ift/symstate.hh"

#include <algorithm>

#include "base/logging.hh"

namespace glifs
{

namespace
{

/**
 * Pack the signals at(0) .. at(n - 1) into slots [first, first + n)
 * of the known/value/taint planes, one plane word at a time: each run
 * of slots sharing a word is assembled in registers and stored once,
 * leaving the word's other bits as they were.
 */
template <typename At>
void
packSlots(BitPlane &known, BitPlane &value, BitPlane &taint,
          size_t first, size_t n, At at)
{
    uint64_t *k = known.words().data();
    uint64_t *v = value.words().data();
    uint64_t *t = taint.words().data();
    for (size_t i = 0; i < n;) {
        const size_t w = (first + i) / 64;
        const unsigned lo = (first + i) % 64;
        const size_t take = std::min<size_t>(64 - lo, n - i);
        uint64_t kw = 0, vw = 0, tw = 0;
        for (size_t b = 0; b < take; ++b) {
            const Signal s = at(i + b);
            kw |= static_cast<uint64_t>(s.known()) << (lo + b);
            vw |= static_cast<uint64_t>(s.value == Tern::One) << (lo + b);
            tw |= static_cast<uint64_t>(s.taint) << (lo + b);
        }
        const uint64_t keep = ~(lowMask(static_cast<unsigned>(take)) << lo);
        k[w] = (k[w] & keep) | kw;
        v[w] = (v[w] & keep) | vw;
        t[w] = (t[w] & keep) | tw;
        i += take;
    }
}

/** The inverse of packSlots: put(i, signal of slot first + i) for
 *  every i < n, reading each plane word once. */
template <typename Put>
void
unpackSlots(const BitPlane &known, const BitPlane &value,
            const BitPlane &taint, size_t first, size_t n, Put put)
{
    const uint64_t *k = known.words().data();
    const uint64_t *v = value.words().data();
    const uint64_t *t = taint.words().data();
    for (size_t i = 0; i < n;) {
        const size_t w = (first + i) / 64;
        const unsigned lo = (first + i) % 64;
        const size_t take = std::min<size_t>(64 - lo, n - i);
        const uint64_t kw = k[w] >> lo, vw = v[w] >> lo, tw = t[w] >> lo;
        for (size_t b = 0; b < take; ++b) {
            const bool isKnown = (kw >> b) & 1;
            put(i + b, Signal{isKnown ? ternBool((vw >> b) & 1) : Tern::X,
                              ((tw >> b) & 1) != 0});
        }
        i += take;
    }
}

} // namespace

SymLayout::SymLayout(const Netlist &netlist) : nl(netlist)
{
    for (GateId g : nl.dffs())
        dffs.push_back(nl.gate(g).out);
    slotCount = dffs.size();
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        const MemoryDecl &decl = nl.memory(m);
        if (!decl.writable)
            continue;  // ROM contents are constant: not state
        memBase.emplace_back(m, slotCount);
        slotCount += decl.words * decl.width;
    }
}

SymState::SymState(const SymLayout &layout)
    : known(layout.slots()), value(layout.slots()), taint(layout.slots())
{
}

Signal
SymState::slot(size_t i) const
{
    Signal s;
    if (known.get(i))
        s.value = value.get(i) ? Tern::One : Tern::Zero;
    else
        s.value = Tern::X;
    s.taint = taint.get(i);
    return s;
}

void
SymState::setSlot(size_t i, const Signal &s)
{
    known.set(i, s.known());
    value.set(i, s.known() && s.asBool());
    taint.set(i, s.taint);
}

void
SymState::setPlanes(BitPlane k, BitPlane v, BitPlane t)
{
    GLIFS_ASSERT(k.size() == v.size() && v.size() == t.size(),
                 "plane size mismatch");
    known = std::move(k);
    value = std::move(v);
    taint = std::move(t);
}

void
SymState::capture(const SymLayout &layout, const SignalState &sigs)
{
    if (known.size() != layout.slots()) {
        known.resize(layout.slots());
        value.resize(layout.slots());
        taint.resize(layout.slots());
    }
    const std::vector<NetId> &dffs = layout.dffNets();
    packSlots(known, value, taint, 0, dffs.size(),
              [&](size_t i) { return sigs.net(dffs[i]); });
    for (const auto &[mem, base] : layout.mems()) {
        const std::vector<Signal> &cells = sigs.memCells(mem);
        GLIFS_ASSERT(base + cells.size() <= known.size(),
                     "memory ", mem, " overruns the layout");
        packSlots(known, value, taint, base, cells.size(),
                  [&](size_t i) { return cells[i]; });
    }
}

void
SymState::restore(const SymLayout &layout, SignalState &sigs) const
{
    GLIFS_ASSERT(known.size() == layout.slots(), "layout mismatch");
    const std::vector<NetId> &dffs = layout.dffNets();
    unpackSlots(known, value, taint, 0, dffs.size(),
                [&](size_t i, Signal s) { sigs.setNet(dffs[i], s); });
    for (const auto &[mem, base] : layout.mems()) {
        std::vector<Signal> &cells = sigs.memCells(mem);
        GLIFS_ASSERT(base + cells.size() <= known.size(),
                     "memory ", mem, " overruns the layout");
        unpackSlots(known, value, taint, base, cells.size(),
                    [&](size_t i, Signal s) { cells[i] = s; });
    }
}

bool
SymState::subsumedBy(const SymState &cons) const
{
    GLIFS_ASSERT(known.size() == cons.known.size(), "size mismatch");
    const auto &k1 = known.words();
    const auto &v1 = value.words();
    const auto &t1 = taint.words();
    const auto &k2 = cons.known.words();
    const auto &v2 = cons.value.words();
    const auto &t2 = cons.taint.words();
    for (size_t w = 0; w < k1.size(); ++w) {
        // Wherever cons is known, this must be known with equal value.
        if (k2[w] & (~k1[w] | (v1[w] ^ v2[w])))
            return false;
        // Taint containment.
        if (t1[w] & ~t2[w])
            return false;
    }
    return true;
}

void
SymState::mergeWith(const SymState &other, bool taint_diffs)
{
    GLIFS_ASSERT(known.size() == other.known.size(), "size mismatch");
    auto &k1 = known.words();
    auto &v1 = value.words();
    auto &t1 = taint.words();
    const auto &k2 = other.known.words();
    const auto &v2 = other.value.words();
    const auto &t2 = other.taint.words();
    for (size_t w = 0; w < k1.size(); ++w) {
        // Slots with a definite difference: known on both sides with
        // different values, or known on exactly one side.
        const uint64_t diff =
            (k1[w] & k2[w] & (v1[w] ^ v2[w])) | (k1[w] ^ k2[w]);
        // Known only where both known and values agree.
        k1[w] = k1[w] & k2[w] & ~(v1[w] ^ v2[w]);
        v1[w] &= k1[w];
        t1[w] |= t2[w];
        if (taint_diffs)
            t1[w] |= diff;
    }
}

} // namespace glifs
