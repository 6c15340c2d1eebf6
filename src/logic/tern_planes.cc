#include "logic/tern_planes.hh"

#include <utility>

#include "base/logging.hh"

namespace glifs
{

TernPlanes::TernPlanes(BitPlane known, BitPlane value, BitPlane taint)
    : k(std::move(known)), v(std::move(value)), t(std::move(taint))
{
    GLIFS_ASSERT(k.size() == v.size() && v.size() == t.size(),
                 "plane size mismatch");
    v.andWith(k);
}

namespace
{

/**
 * Bits [first, first + n) of @p dst := bits [src_first, +n) of @p src,
 * one destination word per step: the source bits landing in a
 * destination word are one funnel shift of two adjacent source words.
 * Returns whether any destination bit changed. n >= 1.
 */
bool
copyBits(std::vector<uint64_t> &dst, size_t first,
         const std::vector<uint64_t> &src, size_t src_first, size_t n)
{
    const size_t end = first + n;
    const size_t firstWord = first / 64;
    const size_t lastWord = (end - 1) / 64;
    // Destination bit p reads source bit p + delta, so word dw reads
    // the funnel of source words dw + wordShift and the one after.
    const auto delta = static_cast<int64_t>(src_first) -
                       static_cast<int64_t>(first);
    const auto off = static_cast<unsigned>(delta & 63);
    const int64_t wordShift = (delta - off) / 64;
    uint64_t diff = 0;

    // An edge word's funnel may reach one word past either end of src;
    // those bits fall outside the word's mask.
    auto storeEdge = [&](size_t dw) {
        auto srcWord = [&](int64_t w) -> uint64_t {
            return w >= 0 && static_cast<size_t>(w) < src.size()
                       ? src[static_cast<size_t>(w)]
                       : 0;
        };
        const int64_t sw = static_cast<int64_t>(dw) + wordShift;
        uint64_t bits = srcWord(sw) >> off;
        if (off)
            bits |= srcWord(sw + 1) << (64 - off);
        uint64_t mask = ~0ULL;
        if (dw == firstWord)
            mask <<= first % 64;
        if (dw == lastWord)
            mask &= lowMask(static_cast<unsigned>(end - dw * 64));
        const uint64_t old = dst[dw];
        dst[dw] = (old & ~mask) | (bits & mask);
        diff |= old ^ dst[dw];
    };

    storeEdge(firstWord);
    // Interior words take all 64 bits from inside the source range.
    for (size_t dw = firstWord + 1; dw < lastWord; ++dw) {
        const auto sw = static_cast<size_t>(static_cast<int64_t>(dw) +
                                            wordShift);
        uint64_t bits = src[sw] >> off;
        if (off)
            bits |= src[sw + 1] << (64 - off);
        diff |= dst[dw] ^ bits;
        dst[dw] = bits;
    }
    if (lastWord != firstWord)
        storeEdge(lastWord);
    return diff != 0;
}

} // namespace

bool
TernPlanes::copyRange(size_t first, const TernPlanes &src,
                      size_t src_first, size_t n)
{
    GLIFS_ASSERT(first + n <= size() && src_first + n <= src.size(),
                 "cell range out of bounds");
    if (n == 0)
        return false;
    bool changed = copyBits(k.words(), first, src.k.words(), src_first, n);
    changed |= copyBits(v.words(), first, src.v.words(), src_first, n);
    changed |= copyBits(t.words(), first, src.t.words(), src_first, n);
    return changed;
}

bool
TernPlanes::subsumedBy(const TernPlanes &cons) const
{
    GLIFS_ASSERT(size() == cons.size(), "size mismatch");
    for (size_t w = 0; w < k.words().size(); ++w) {
        const TernWord a = planeWord(w);
        const TernWord c = cons.planeWord(w);
        // Wherever cons is known, this must be known with equal value,
        // and cons must carry every taint this does.
        if ((c.known & (~a.known | (a.value ^ c.value))) ||
            (a.taint & ~c.taint))
            return false;
    }
    return true;
}

void
TernPlanes::joinWith(const TernPlanes &other)
{
    GLIFS_ASSERT(size() == other.size(), "size mismatch");
    for (size_t w = 0; w < k.words().size(); ++w) {
        const TernWord j = join(planeWord(w), other.planeWord(w));
        k.words()[w] = j.known;
        v.words()[w] = j.value;
        t.words()[w] = j.taint;
    }
}

} // namespace glifs
