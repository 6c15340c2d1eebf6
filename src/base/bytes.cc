#include "base/bytes.hh"

#include <bit>

#include "base/hash.hh"

namespace glifs::bytes
{

void
Writer::put(uint64_t v, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
Writer::f64(double v)
{
    u64(std::bit_cast<uint64_t>(v));
}

void
Writer::str(std::string_view s)
{
    u32(static_cast<uint32_t>(s.size()));
    out.append(s);
}

uint64_t
Reader::get(unsigned n)
{
    const std::string_view b = take(n);
    uint64_t v = 0;
    for (size_t i = 0; i < b.size(); ++i)
        v |= uint64_t{static_cast<uint8_t>(b[i])} << (8 * i);
    return v;
}

double
Reader::f64()
{
    return std::bit_cast<double>(u64());
}

std::string
Reader::str()
{
    const uint32_t n = u32();
    return std::string(take(n));
}

uint32_t
Reader::count()
{
    const uint32_t n = u32();
    if (n > remaining()) {
        failed = true;
        return 0;
    }
    return n;
}

std::string_view
Reader::take(size_t n)
{
    if (failed || n > remaining()) {
        failed = true;
        return {};
    }
    const std::string_view b = in.substr(pos, n);
    pos += n;
    return b;
}

std::string
encodeFrame(uint8_t type, std::string_view payload)
{
    std::string frame;
    Writer w(frame);
    w.u32(static_cast<uint32_t>(payload.size()));
    w.u8(type);
    frame.append(payload);
    w.u32(crc32(frame.data() + 4, frame.size() - 4));
    return frame;
}

Frame
decodeFrame(std::string_view buf, uint32_t maxPayload)
{
    Frame f;
    Reader r(buf);
    const uint32_t len = r.u32();
    if (r.bad())
        return f;
    if (len > maxPayload) {
        f.status = FrameStatus::OverLength;
        return f;
    }
    const std::string_view body = r.take(size_t{len} + 1);
    const uint32_t crc = r.u32();
    if (r.bad())
        return f;
    f.size = buf.size() - r.remaining();
    if (crc32(body.data(), body.size()) != crc) {
        f.status = FrameStatus::BadCrc;
        return f;
    }
    f.status = FrameStatus::Ok;
    f.type = static_cast<uint8_t>(body[0]);
    f.payload = body.substr(1);
    return f;
}

} // namespace glifs::bytes
