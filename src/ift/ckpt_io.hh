/**
 * @file
 * Little-endian primitive serialization over in-memory buffers for
 * the engine checkpoint format (ift/checkpoint.cc).
 *
 * Writer appends to a caller-provided std::string so the checkpoint
 * save loop can reuse one scratch buffer across calls instead of
 * re-allocating an ostringstream per snapshot. Reader is a
 * bounds-checked cursor over a std::string_view; every short read or
 * implausible section length surfaces as one RecoverableError, never
 * a garbage parse.
 */

#ifndef GLIFS_IFT_CKPT_IO_HH
#define GLIFS_IFT_CKPT_IO_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "base/bitutil.hh"
#include "base/logging.hh"
#include "ift/symstate.hh"

namespace glifs::ckptio
{

/** Caps on what a reader believes: a section length or string beyond
 *  these is treated as corruption, not an allocation request. */
constexpr uint32_t kMaxSection = 1u << 26;
constexpr uint64_t kMaxBits = 1ull << 36;

/** Little-endian primitive writer appending to a reusable buffer. */
class Writer
{
  public:
    explicit Writer(std::string &o) : out(o) {}

    void
    u8(uint8_t v)
    {
        out.push_back(static_cast<char>(v));
    }

    void
    u16(uint16_t v)
    {
        u8(v & 0xFF);
        u8(v >> 8);
    }

    void
    u32(uint32_t v)
    {
        u16(v & 0xFFFF);
        u16(v >> 16);
    }

    void
    u64(uint64_t v)
    {
        u32(static_cast<uint32_t>(v));
        u32(static_cast<uint32_t>(v >> 32));
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        out.append(s);
    }

    void
    plane(const BitPlane &p)
    {
        u64(p.size());
        for (uint64_t w : p.words())
            u64(w);
    }

    void
    symstate(const SymState &s)
    {
        plane(s.knownPlane());
        plane(s.valuePlane());
        plane(s.taintPlane());
    }

  private:
    std::string &out;
};

/** Bounds-checked little-endian cursor; RecoverableError on defects. */
class Reader
{
  public:
    explicit Reader(std::string_view b) : buf(b) {}

    uint8_t
    u8()
    {
        if (pos >= buf.size())
            GLIFS_RECOVERABLE("snapshot: truncated buffer");
        return static_cast<uint8_t>(buf[pos++]);
    }

    uint16_t u16() { return u8() | (uint16_t{u8()} << 8); }
    uint32_t u32() { return u16() | (uint32_t{u16()} << 16); }
    uint64_t u64() { return u32() | (uint64_t{u32()} << 32); }

    std::string
    str()
    {
        uint32_t n = u32();
        if (n > kMaxSection)
            GLIFS_RECOVERABLE("snapshot: implausible string length ",
                              n);
        if (pos + n > buf.size())
            GLIFS_RECOVERABLE("snapshot: truncated buffer");
        std::string s(buf.substr(pos, n));
        pos += n;
        return s;
    }

    BitPlane
    plane()
    {
        uint64_t nbits = u64();
        if (nbits > kMaxBits)
            GLIFS_RECOVERABLE("snapshot: implausible plane size ",
                              nbits);
        BitPlane p(static_cast<size_t>(nbits));
        for (uint64_t &w : p.words())
            w = u64();
        return p;
    }

    SymState
    symstate()
    {
        BitPlane k = plane();
        BitPlane v = plane();
        BitPlane t = plane();
        if (k.size() != v.size() || v.size() != t.size())
            GLIFS_RECOVERABLE("snapshot: state plane size mismatch");
        SymState s;
        s.setPlanes(std::move(k), std::move(v), std::move(t));
        return s;
    }

    /** Bytes not yet consumed (trailing-garbage checks). */
    size_t remaining() const { return buf.size() - pos; }

  private:
    std::string_view buf;
    size_t pos = 0;
};

} // namespace glifs::ckptio

#endif // GLIFS_IFT_CKPT_IO_HH
