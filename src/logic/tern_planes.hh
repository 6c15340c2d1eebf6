/**
 * @file
 * The one storage format for ternary, tainted state cells: three bit
 * planes (known / value / taint) indexed by cell, with the value bit 0
 * under an X.
 *
 * Memories use it with cell = word * width + bit, so a memory word is
 * a bit range read or written a plane word at a time; SymState uses it
 * over its slot layout, so a capture or restore copies each memory as
 * one cell range and the state table's substate test and merge are
 * straight loops over plane words.
 */

#ifndef GLIFS_LOGIC_TERN_PLANES_HH
#define GLIFS_LOGIC_TERN_PLANES_HH

#include "base/bitutil.hh"
#include "logic/ternary.hh"

namespace glifs
{

/** Up to 64 ternary, tainted bits; value is 0 wherever known is 0. */
struct TernWord
{
    uint64_t known = 0;
    uint64_t value = 0;
    uint64_t taint = 0;

    /** Bit @p b as a Signal. */
    Signal
    at(unsigned b) const
    {
        return Signal{bit(known, b) ? ternBool(bit(value, b)) : Tern::X,
                      bit(taint, b)};
    }

    /** Set bit @p b from a Signal. */
    void
    set(unsigned b, const Signal &s)
    {
        known = setBit(known, b, s.known());
        value = setBit(value, b, s.value == Tern::One);
        taint = setBit(taint, b, s.taint);
    }
};

/**
 * The ternary join, bit-wise: equal known values stay, anything else
 * becomes X; taints union. Memory reads over an ambiguous address,
 * weak memory writes and state merges all use it.
 */
inline TernWord
join(const TernWord &a, const TernWord &b)
{
    const uint64_t known = a.known & b.known & ~(a.value ^ b.value);
    return {known, a.value & known, a.taint | b.taint};
}

/** Known/value/taint planes over a fixed number of cells. */
class TernPlanes
{
  public:
    TernPlanes() = default;

    /** @p cells cells, all X and untainted. */
    explicit TernPlanes(size_t cells) : k(cells), v(cells), t(cells) {}

    /** Adopt raw planes of equal size; value bits under X are cleared. */
    TernPlanes(BitPlane known, BitPlane value, BitPlane taint);

    size_t size() const { return k.size(); }

    Signal get(size_t i) const { return word(i, 1).at(0); }

    void
    set(size_t i, const Signal &s)
    {
        setWord(i, 1, {s.known(), s.value == Tern::One, s.taint});
    }

    /** Cells [first, first + n) as one word, 1 <= n <= 64. */
    TernWord
    word(size_t first, unsigned n) const
    {
        return {k.getBits(first, n), v.getBits(first, n),
                t.getBits(first, n)};
    }

    /** Overwrite cells [first, first + n) with the low n bits of w. */
    void
    setWord(size_t first, unsigned n, const TernWord &w)
    {
        k.setBits(first, n, w.known);
        v.setBits(first, n, w.value);
        t.setBits(first, n, w.taint);
    }

    /**
     * Cells [first, first + n) := cells [src_first, +n) of @p src, a
     * plane word at a time at any pair of bit offsets. Returns whether
     * any destination cell changed in any of the three planes.
     */
    bool copyRange(size_t first, const TernPlanes &src, size_t src_first,
                   size_t n);

    /**
     * Substate test: every cell known in @p cons is known here with the
     * same value, and every cell tainted here is tainted in @p cons.
     */
    bool subsumedBy(const TernPlanes &cons) const;

    /** this := join(this, other), one plane word at a time. */
    void joinWith(const TernPlanes &other);

    const BitPlane &known() const { return k; }
    const BitPlane &value() const { return v; }
    const BitPlane &taint() const { return t; }

    bool operator==(const TernPlanes &o) const = default;

  private:
    BitPlane k;
    BitPlane v;
    BitPlane t;

    /** Plane word @p w (cells 64w .. 64w + 63) of all three planes. */
    TernWord
    planeWord(size_t w) const
    {
        return {k.words()[w], v.words()[w], t.words()[w]};
    }
};

} // namespace glifs

#endif // GLIFS_LOGIC_TERN_PLANES_HH
