/**
 * @file
 * Conservative taint semantics for memory macro blocks (Section 4.1 and
 * Figure 9 of the paper).
 *
 * Reads and writes with fully known addresses behave like a normal RAM,
 * ORing the address taint into the data taint. An address with unknown
 * (X) bits denotes a *set* of cells: a read joins all reachable words,
 * and a write conservatively joins the written data into every
 * reachable word -- a store through a fully unknown tainted pointer
 * therefore taints the whole memory, exactly the behaviour the paper
 * reports for the unmasked Figure 9 listing.
 *
 * The cells are TernPlanes with cell = word * width + bit, so every
 * port operation moves one plane word per memory word through the
 * ternary join (logic/tern_planes.hh).
 */

#ifndef GLIFS_NETLIST_MEMORY_ARRAY_HH
#define GLIFS_NETLIST_MEMORY_ARRAY_HH

#include <span>

#include "logic/tern_planes.hh"
#include "netlist/netlist.hh"

namespace glifs
{

/** Decoded view of a (possibly partially unknown) memory address. */
struct MemAddr
{
    uint64_t base = 0;       ///< known bits of the address
    uint64_t xMask = 0;      ///< bit positions whose value is X
    bool tainted = false;    ///< OR of all address-bit taints
    bool fullRange = false;  ///< too many X bits: any cell

    /** Exactly one concrete address? */
    bool concrete() const { return !fullRange && xMask == 0; }
};

/** Decode address signals (LSB first) into a MemAddr. */
MemAddr decodeMemAddr(std::span<const Signal> addr, size_t words,
                      unsigned max_unknown_bits);

/**
 * Enumerate every in-range concrete address a MemAddr may denote, in
 * ascending order, and call @p fn(word_index) for each.
 */
template <typename Fn>
void
forEachAddr(const MemAddr &addr, size_t words, Fn &&fn)
{
    if (addr.fullRange) {
        for (size_t w = 0; w < words; ++w)
            fn(w);
        return;
    }
    // Every subset of the X bits, in ascending order.
    uint64_t sub = 0;
    do {
        const uint64_t a = addr.base | sub;
        if (a < words)
            fn(static_cast<size_t>(a));
        sub = (sub - addr.xMask) & addr.xMask;
    } while (sub != 0);
}

/** Read one word of @p cells (words x width cells, word-major). */
TernWord memoryRead(const TernPlanes &cells, unsigned width, size_t words,
                    const MemAddr &addr);

/**
 * Apply one write-port update at a clock edge. @p we is the write
 * enable signal, @p data the word to store.
 */
void memoryWrite(TernPlanes &cells, unsigned width, size_t words,
                 const MemAddr &addr, const Signal &we, TernWord data);

} // namespace glifs

#endif // GLIFS_NETLIST_MEMORY_ARRAY_HH
