#include "logic/tern_planes.hh"

#include <algorithm>

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

void
TernPlanes::copyRange(size_t first, const TernPlanes &src,
                      size_t src_first, size_t n)
{
    GLIFS_ASSERT(first + n <= size() && src_first + n <= src.size(),
                 "cell range out of bounds");
    for (size_t i = 0; i < n; i += 64) {
        const auto take =
            static_cast<unsigned>(std::min<size_t>(64, n - i));
        setWord(first + i, take, src.word(src_first + i, take));
    }
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
