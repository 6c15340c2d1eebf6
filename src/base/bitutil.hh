/**
 * @file
 * Small bit-manipulation helpers used throughout glifs.
 */

#ifndef GLIFS_BASE_BITUTIL_HH
#define GLIFS_BASE_BITUTIL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/logging.hh"

namespace glifs
{

/** Extract bit @p pos of @p value. */
inline bool
bit(uint64_t value, unsigned pos)
{
    return (value >> pos) & 1ULL;
}

/** Return @p value with bit @p pos set to @p b. */
inline uint64_t
setBit(uint64_t value, unsigned pos, bool b)
{
    return b ? (value | (1ULL << pos)) : (value & ~(1ULL << pos));
}

/** Mask with the low @p n bits set (n in [0,64]). */
inline uint64_t
lowMask(unsigned n)
{
    return n >= 64 ? ~0ULL : ((1ULL << n) - 1);
}

/** Population count. */
unsigned popcount64(uint64_t v);

/** Number of bits needed to represent values 0..n-1 (at least 1). */
unsigned bitsFor(uint64_t n);

/** Sign-extend the low @p bits of @p v to 64 bits. */
int64_t signExtend(uint64_t v, unsigned bits);

/**
 * A simple growable bitset backed by 64-bit words with word-level
 * merge/subset operations; the workhorse behind symbolic state planes.
 */
class BitPlane
{
  public:
    BitPlane() = default;
    explicit BitPlane(size_t nbits);

    void resize(size_t nbits);
    size_t size() const { return numBits; }

    bool get(size_t i) const { return getBits(i, 1); }
    void set(size_t i, bool b) { setBits(i, 1, b); }

    /** Bits [pos, pos + n) as the low n bits of a word, 1 <= n <= 64. */
    uint64_t
    getBits(size_t pos, unsigned n) const
    {
        GLIFS_ASSERT(n >= 1 && n <= 64 && pos + n <= numBits,
                     "BitPlane range ", pos, "+", n, " > ", numBits);
        const unsigned off = pos % 64;
        uint64_t bits = data[pos / 64] >> off;
        if (off + n > 64)
            bits |= data[pos / 64 + 1] << (64 - off);
        return bits & lowMask(n);
    }

    /** Overwrite bits [pos, pos + n) with the low n bits of @p bits. */
    void
    setBits(size_t pos, unsigned n, uint64_t bits)
    {
        GLIFS_ASSERT(n >= 1 && n <= 64 && pos + n <= numBits,
                     "BitPlane range ", pos, "+", n, " > ", numBits);
        const uint64_t mask = lowMask(n);
        const unsigned off = pos % 64;
        bits &= mask;
        uint64_t &lo = data[pos / 64];
        lo = (lo & ~(mask << off)) | (bits << off);
        if (off + n > 64) {
            uint64_t &hi = data[pos / 64 + 1];
            hi = (hi & ~(mask >> (64 - off))) | (bits >> (64 - off));
        }
    }

    void clearAll();
    void setAll();

    /** Number of set bits. */
    size_t count() const;

    /** this |= other (sizes must match). */
    void orWith(const BitPlane &other);
    /** this &= other (sizes must match). */
    void andWith(const BitPlane &other);

    /** True if every set bit of this is also set in other. */
    bool subsetOf(const BitPlane &other) const;

    bool operator==(const BitPlane &other) const;

    const std::vector<uint64_t> &words() const { return data; }
    std::vector<uint64_t> &words() { return data; }

  private:
    size_t numBits = 0;
    std::vector<uint64_t> data;

    void maskTail();
};

} // namespace glifs

#endif // GLIFS_BASE_BITUTIL_HH
