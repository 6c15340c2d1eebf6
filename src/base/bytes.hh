/**
 * @file
 * The one byte codec behind glifs' binary formats: the engine
 * checkpoint (ift/checkpoint.hh), the batch journal (batch/journal.hh)
 * and the worker telemetry stream (base/telemetry.hh).
 *
 * Writer appends little-endian integers, IEEE-754 doubles and
 * u32-length-prefixed strings to a caller's std::string. Reader is a
 * cursor over a std::string_view that never throws: a short read, or a
 * length or element count larger than the bytes left, sets bad() and
 * every later read yields zero. A decoder reads straight through and
 * checks bad() once, and no allocation is ever sized from a field the
 * reader has not bounded by the bytes actually there.
 *
 * The journal and the telemetry stream share one record frame:
 *
 *   u32 payload_len | u8 type | payload | u32 crc32(type + payload)
 *
 * encodeFrame() builds it and decodeFrame() recognises one at the
 * front of a buffer. decodeFrame() only reports what it found; what to
 * do about a short, over-long or damaged frame (wait, stop, skip,
 * abandon the stream) is the caller's policy.
 */

#ifndef GLIFS_BASE_BYTES_HH
#define GLIFS_BASE_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace glifs::bytes
{

/** Little-endian writer appending to a caller-owned buffer. */
class Writer
{
  public:
    explicit Writer(std::string &out) : out(out) {}

    void u8(uint8_t v) { put(v, 1); }
    void u16(uint16_t v) { put(v, 2); }
    void u32(uint32_t v) { put(v, 4); }
    void u64(uint64_t v) { put(v, 8); }
    /** The IEEE-754 bits of @p v as a u64. */
    void f64(double v);
    /** A u32 byte length, then the bytes. */
    void str(std::string_view s);

  private:
    void put(uint64_t v, unsigned n);

    std::string &out;
};

/** Bounds-checked little-endian cursor; sets bad() instead of throwing. */
class Reader
{
  public:
    explicit Reader(std::string_view in) : in(in) {}

    uint8_t u8() { return static_cast<uint8_t>(get(1)); }
    uint16_t u16() { return static_cast<uint16_t>(get(2)); }
    uint32_t u32() { return static_cast<uint32_t>(get(4)); }
    uint64_t u64() { return get(8); }
    double f64();
    /** A string written by Writer::str; "" and bad() when its length
     *  exceeds the bytes left. */
    std::string str();
    /** A u32 element count; 0 and bad() when it exceeds the bytes left
     *  (every element takes at least one byte). */
    uint32_t count();
    /** The next @p n bytes; empty and bad() when fewer are left. */
    std::string_view take(size_t n);

    size_t remaining() const { return in.size() - pos; }
    bool bad() const { return failed; }
    /** Mark the input malformed (a decoder's own consistency check). */
    void fail() { failed = true; }

  private:
    uint64_t get(unsigned n);

    std::string_view in;
    size_t pos = 0;
    bool failed = false;
};

/** What decodeFrame() found at the front of a buffer. */
enum class FrameStatus : uint8_t
{
    Ok,         ///< a whole frame whose CRC matches
    Incomplete, ///< the buffer ends before the frame does
    OverLength, ///< the length field exceeds the caller's cap
    BadCrc,     ///< a whole frame whose CRC does not match
};

struct Frame
{
    FrameStatus status = FrameStatus::Incomplete;
    /** Bytes the frame spans, header and CRC included (Ok, BadCrc). */
    size_t size = 0;
    uint8_t type = 0;         ///< Ok only
    std::string_view payload; ///< Ok only; a view into the buffer
};

/** One record frame carrying @p type and @p payload. */
std::string encodeFrame(uint8_t type, std::string_view payload);

/** Recognise the frame at the front of @p buf, believing a payload
 *  length of at most @p maxPayload bytes. */
Frame decodeFrame(std::string_view buf, uint32_t maxPayload);

} // namespace glifs::bytes

#endif // GLIFS_BASE_BYTES_HH
