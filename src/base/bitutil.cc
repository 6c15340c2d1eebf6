#include "base/bitutil.hh"

#include <bit>

#include "base/logging.hh"

namespace glifs
{

unsigned
popcount64(uint64_t v)
{
    return static_cast<unsigned>(std::popcount(v));
}

unsigned
bitsFor(uint64_t n)
{
    if (n <= 2)
        return 1;
    unsigned bits = 0;
    uint64_t max = n - 1;
    while (max) {
        ++bits;
        max >>= 1;
    }
    return bits;
}

int64_t
signExtend(uint64_t v, unsigned bits)
{
    GLIFS_ASSERT(bits >= 1 && bits <= 64, "bad width ", bits);
    if (bits == 64)
        return static_cast<int64_t>(v);
    uint64_t m = 1ULL << (bits - 1);
    v &= lowMask(bits);
    return static_cast<int64_t>((v ^ m) - m);
}

BitPlane::BitPlane(size_t nbits)
{
    resize(nbits);
}

void
BitPlane::resize(size_t nbits)
{
    numBits = nbits;
    data.assign((nbits + 63) / 64, 0);
}

void
BitPlane::clearAll()
{
    for (auto &w : data)
        w = 0;
}

void
BitPlane::setAll()
{
    for (auto &w : data)
        w = ~0ULL;
    maskTail();
}

void
BitPlane::maskTail()
{
    if (numBits % 64 != 0 && !data.empty())
        data.back() &= lowMask(numBits % 64);
}

size_t
BitPlane::count() const
{
    size_t n = 0;
    for (auto w : data)
        n += popcount64(w);
    return n;
}

void
BitPlane::orWith(const BitPlane &other)
{
    GLIFS_ASSERT(numBits == other.numBits, "plane size mismatch");
    for (size_t i = 0; i < data.size(); ++i)
        data[i] |= other.data[i];
}

void
BitPlane::andWith(const BitPlane &other)
{
    GLIFS_ASSERT(numBits == other.numBits, "plane size mismatch");
    for (size_t i = 0; i < data.size(); ++i)
        data[i] &= other.data[i];
}

bool
BitPlane::subsetOf(const BitPlane &other) const
{
    GLIFS_ASSERT(numBits == other.numBits, "plane size mismatch");
    for (size_t i = 0; i < data.size(); ++i) {
        if (data[i] & ~other.data[i])
            return false;
    }
    return true;
}

bool
BitPlane::operator==(const BitPlane &other) const
{
    return numBits == other.numBits && data == other.data;
}

} // namespace glifs
