#include "netlist/memory_array.hh"

#include "base/logging.hh"

namespace glifs
{

MemAddr
decodeMemAddr(std::span<const Signal> addr, size_t words,
              unsigned max_unknown_bits)
{
    MemAddr out;
    for (size_t i = 0; i < addr.size(); ++i) {
        const Signal &s = addr[i];
        out.tainted = out.tainted || s.taint;
        if (!s.known())
            out.xMask |= 1ULL << i;
        else if (s.asBool())
            out.base |= 1ULL << i;
    }
    const unsigned unknown = popcount64(out.xMask);
    if (unknown > max_unknown_bits || (1ULL << unknown) >= 2 * words)
        out = MemAddr{0, 0, out.tainted, true};
    return out;
}

TernWord
memoryRead(const TernPlanes &cells, unsigned width, size_t words,
           const MemAddr &addr)
{
    GLIFS_ASSERT(cells.size() == words * width, "memoryRead cell count");

    // X and untainted when no reachable address is in range.
    TernWord out;
    bool any = false;
    forEachAddr(addr, words, [&](size_t w) {
        const TernWord cell = cells.word(w * width, width);
        out = any ? join(out, cell) : cell;
        any = true;
    });
    if (addr.tainted)
        out.taint = lowMask(width);
    return out;
}

void
memoryWrite(TernPlanes &cells, unsigned width, size_t words,
            const MemAddr &addr, const Signal &we, TernWord data)
{
    GLIFS_ASSERT(cells.size() == words * width, "memoryWrite cell count");

    // Definitely no write: nothing to do. A tainted-but-0 enable is
    // handled by the engine's path enumeration (the path where the
    // write actually happens carries the taint; merges OR it back).
    if (we.known() && !we.asBool())
        return;

    if (we.taint || addr.tainted)
        data.taint = lowMask(width);

    // A known enable and a concrete address overwrite the word; an
    // unknown enable or an ambiguous address is a weak update that
    // joins the data into every reachable word.
    const bool strong = we.known() && addr.concrete();
    forEachAddr(addr, words, [&](size_t w) {
        cells.setWord(w * width, width,
                      strong ? data
                             : join(cells.word(w * width, width), data));
    });
}

} // namespace glifs
