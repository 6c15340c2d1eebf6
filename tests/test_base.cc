/**
 * @file
 * Unit tests for src/base: logging, bit utilities, string utilities
 * and the byte codec. The codec cases (Bytes*) also run under
 * ASan+UBSan through a `sanitize`-labelled slice of this binary.
 */

#include <gtest/gtest.h>

#include <string>

#include "base/bitutil.hh"
#include "base/bytes.hh"
#include "base/hash.hh"
#include "base/logging.hh"
#include "base/strutil.hh"

namespace glifs
{
namespace
{

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(GLIFS_PANIC("boom ", 42), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(GLIFS_FATAL("bad input ", "x"), FatalError);
}

TEST(Logging, AssertPassesOnTrue)
{
    EXPECT_NO_THROW(GLIFS_ASSERT(1 + 1 == 2, "math"));
}

TEST(Logging, AssertThrowsOnFalse)
{
    EXPECT_THROW(GLIFS_ASSERT(false, "nope"), PanicError);
}

TEST(Logging, MessageContainsText)
{
    try {
        GLIFS_FATAL("alpha ", 7, " beta");
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("alpha 7 beta"),
                  std::string::npos);
    }
}

TEST(BitUtil, BitAndSetBit)
{
    EXPECT_TRUE(bit(0b100, 2));
    EXPECT_FALSE(bit(0b100, 1));
    EXPECT_EQ(setBit(0, 5, true), 32u);
    EXPECT_EQ(setBit(0xFF, 0, false), 0xFEu);
}

TEST(BitUtil, LowMask)
{
    EXPECT_EQ(lowMask(0), 0u);
    EXPECT_EQ(lowMask(4), 0xFu);
    EXPECT_EQ(lowMask(64), ~0ULL);
}

TEST(BitUtil, BitsFor)
{
    EXPECT_EQ(bitsFor(2), 1u);
    EXPECT_EQ(bitsFor(3), 2u);
    EXPECT_EQ(bitsFor(4096), 12u);
    EXPECT_EQ(bitsFor(4097), 13u);
}

TEST(BitUtil, SignExtend)
{
    EXPECT_EQ(signExtend(0x1FF, 9), -1);
    EXPECT_EQ(signExtend(0x0FF, 9), 255);
    EXPECT_EQ(signExtend(0x100, 9), -256);
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
}

TEST(BitPlane, SetGetCount)
{
    BitPlane p(130);
    EXPECT_EQ(p.count(), 0u);
    p.set(0, true);
    p.set(64, true);
    p.set(129, true);
    EXPECT_TRUE(p.get(0));
    EXPECT_TRUE(p.get(64));
    EXPECT_TRUE(p.get(129));
    EXPECT_FALSE(p.get(1));
    EXPECT_EQ(p.count(), 3u);
    p.set(64, false);
    EXPECT_EQ(p.count(), 2u);
}

TEST(BitPlane, SetAllMasksTail)
{
    BitPlane p(70);
    p.setAll();
    EXPECT_EQ(p.count(), 70u);
}

TEST(BitPlane, OrAndSubset)
{
    BitPlane a(100);
    BitPlane b(100);
    a.set(3, true);
    b.set(3, true);
    b.set(70, true);
    EXPECT_TRUE(a.subsetOf(b));
    EXPECT_FALSE(b.subsetOf(a));
    a.orWith(b);
    EXPECT_TRUE(b.subsetOf(a));
    EXPECT_EQ(a.count(), 2u);
    a.andWith(b);
    EXPECT_EQ(a.count(), 2u);
}

TEST(BitPlane, EqualityAndClear)
{
    BitPlane a(10);
    BitPlane b(10);
    a.set(5, true);
    EXPECT_FALSE(a == b);
    a.clearAll();
    EXPECT_TRUE(a == b);
}

TEST(BitPlane, OutOfRangePanics)
{
    BitPlane p(8);
    EXPECT_THROW(p.get(8), PanicError);
}

TEST(StrUtil, Trim)
{
    EXPECT_EQ(trim("  hi \t"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(StrUtil, Split)
{
    auto v = split("a,b,,c", ',');
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[2], "");
    EXPECT_EQ(v[3], "c");
}

TEST(StrUtil, ToLowerStartsWith)
{
    EXPECT_EQ(toLower("MoV R5"), "mov r5");
    EXPECT_TRUE(startsWith("hello", "he"));
    EXPECT_FALSE(startsWith("he", "hello"));
}

TEST(StrUtil, ParseIntDecimal)
{
    EXPECT_EQ(parseInt("123").value(), 123);
    EXPECT_EQ(parseInt("-45").value(), -45);
    EXPECT_EQ(parseInt("+7").value(), 7);
}

TEST(StrUtil, ParseIntHexBin)
{
    EXPECT_EQ(parseInt("0x0FFF").value(), 0x0FFF);
    EXPECT_EQ(parseInt("0b1010").value(), 10);
    EXPECT_EQ(parseInt("-0x10").value(), -16);
}

TEST(StrUtil, ParseIntRejectsGarbage)
{
    EXPECT_FALSE(parseInt("").has_value());
    EXPECT_FALSE(parseInt("12x").has_value());
    EXPECT_FALSE(parseInt("0x").has_value());
    EXPECT_FALSE(parseInt("zz").has_value());
}

TEST(StrUtil, Hex16AndPercent)
{
    EXPECT_EQ(hex16(0x0FFF), "0x0fff");
    EXPECT_EQ(percent(0.15, 1), "15.0%");
}

TEST(BytesCodec, WritesLittleEndianAndReadsItBack)
{
    std::string buf;
    bytes::Writer w(buf);
    w.u8(0x01);
    w.u16(0x0302);
    w.u32(0x07060504);
    w.u64(0x0f0e0d0c0b0a0908ULL);
    w.f64(1.5);
    w.str("ab");
    EXPECT_EQ(buf, std::string("\x01\x02\x03\x04\x05\x06\x07"
                               "\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"
                               "\x00\x00\x00\x00\x00\x00\xf8\x3f"
                               "\x02\x00\x00\x00"
                               "ab",
                               29));

    bytes::Reader r(buf);
    EXPECT_EQ(r.u8(), 0x01);
    EXPECT_EQ(r.u16(), 0x0302);
    EXPECT_EQ(r.u32(), 0x07060504u);
    EXPECT_EQ(r.u64(), 0x0f0e0d0c0b0a0908ULL);
    EXPECT_EQ(r.f64(), 1.5);
    EXPECT_EQ(r.str(), "ab");
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_FALSE(r.bad());
}

TEST(BytesCodec, ShortReadSetsBadAndYieldsZeroFromThenOn)
{
    const std::string buf("\x01\x02\x03", 3);
    bytes::Reader r(buf);
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_TRUE(r.bad());
    // The bytes are still there, but a bad reader stays bad.
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.take(1).empty());
    EXPECT_TRUE(r.bad());
}

TEST(BytesCodec, LengthsAndCountsAreBoundedByTheBytesLeft)
{
    // A length, or an element count, of 4 with three bytes after it.
    std::string buf;
    bytes::Writer(buf).u32(4);
    buf += "abc";
    bytes::Reader s(buf);
    EXPECT_EQ(s.str(), "");
    EXPECT_TRUE(s.bad());
    bytes::Reader c(buf);
    EXPECT_EQ(c.count(), 0u);
    EXPECT_TRUE(c.bad());

    // A count may equal the bytes left.
    buf[0] = 3;
    bytes::Reader d(buf);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_FALSE(d.bad());

    // A huge length never turns into an allocation.
    std::string huge;
    bytes::Writer(huge).u32(0xFFFFFFFFu);
    bytes::Reader h(huge);
    EXPECT_EQ(h.str(), "");
    EXPECT_TRUE(h.bad());
}

TEST(BytesCodec, FailMarksAConsistencyError)
{
    bytes::Reader r("x");
    EXPECT_FALSE(r.bad());
    r.fail();
    EXPECT_TRUE(r.bad());
    EXPECT_EQ(r.u8(), 0u);
}

TEST(BytesFrame, EncodesTheRecordLayout)
{
    const std::string f = bytes::encodeFrame(7, "hi");
    std::string want("\x02\x00\x00\x00\x07hi", 7);
    const uint32_t crc = crc32(want.data() + 4, 3);
    bytes::Writer(want).u32(crc);
    EXPECT_EQ(f, want);
}

TEST(BytesFrame, DecodesAFrameAndReportsItsSize)
{
    const std::string stream =
        bytes::encodeFrame(3, "payload") + bytes::encodeFrame(4, "");
    bytes::Frame f = bytes::decodeFrame(stream, 64);
    ASSERT_EQ(f.status, bytes::FrameStatus::Ok);
    EXPECT_EQ(f.type, 3);
    EXPECT_EQ(f.payload, "payload");
    EXPECT_EQ(f.size, 4u + 1 + 7 + 4);

    f = bytes::decodeFrame(std::string_view(stream).substr(f.size), 64);
    ASSERT_EQ(f.status, bytes::FrameStatus::Ok);
    EXPECT_EQ(f.type, 4);
    EXPECT_TRUE(f.payload.empty());
    EXPECT_EQ(f.size, 9u);
}

TEST(BytesFrame, EveryPrefixIsIncomplete)
{
    const std::string frame = bytes::encodeFrame(1, "abcdef");
    for (size_t n = 0; n < frame.size(); ++n) {
        const bytes::Frame f =
            bytes::decodeFrame(std::string_view(frame).substr(0, n), 64);
        EXPECT_EQ(f.status, bytes::FrameStatus::Incomplete)
            << "prefix of " << n << " bytes";
        EXPECT_EQ(f.size, 0u);
    }
}

TEST(BytesFrame, LengthPastTheCapIsOverLengthBeforeAnyBody)
{
    const std::string frame = bytes::encodeFrame(1, "abcdef");
    EXPECT_EQ(bytes::decodeFrame(frame, 6).status, bytes::FrameStatus::Ok);
    // Only the length field is needed to refuse it.
    EXPECT_EQ(bytes::decodeFrame(frame.substr(0, 4), 5).status,
              bytes::FrameStatus::OverLength);
}

TEST(BytesFrame, AnyFlippedBitPastTheLengthIsABadCrcOfTheSameSize)
{
    const std::string frame = bytes::encodeFrame(2, "xyz");
    for (size_t byte = 4; byte < frame.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = frame;
            bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
            const bytes::Frame f = bytes::decodeFrame(bad, 64);
            EXPECT_EQ(f.status, bytes::FrameStatus::BadCrc)
                << "byte " << byte << " bit " << bit;
            EXPECT_EQ(f.size, frame.size());
        }
    }
}

} // namespace
} // namespace glifs
