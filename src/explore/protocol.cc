#include "explore/protocol.hh"

#include <fcntl.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

#include "base/faultfs.hh"
#include "base/hash.hh"
#include "base/logging.hh"
#include "ift/checkpoint.hh"
#include "ift/ckpt_io.hh"

namespace glifs::explore
{

namespace
{

constexpr char kMagic[8] = {'G', 'L', 'F', 'S', 'S', 'E', 'G', 'R'};
/** v2 added each POR fork's instruction and cycle. */
constexpr uint32_t kVersion = 2;

enum SegFlag : uint8_t
{
    kHalted = 1 << 0,
    kPcUnknown = 1 << 1,
    kOverrun = 1 << 2,
    kHasEnd = 1 << 3,
    kHasTaint = 1 << 4,
};

} // namespace

std::string
stateDigest(const SymState &s)
{
    Sha256 h;
    // Plane sizes first so boundary-shifted plane contents never
    // collide across states of different (hypothetical) layouts.
    const BitPlane *planes[] = {&s.knownPlane(), &s.valuePlane(),
                                &s.taintPlane()};
    for (const BitPlane *p : planes) {
        uint64_t n = p->size();
        h.update(&n, sizeof(n));
        h.update(p->words().data(),
                 p->words().size() * sizeof(uint64_t));
    }
    std::array<uint8_t, 32> d = h.digest();
    return std::string(reinterpret_cast<const char *>(d.data()),
                       d.size());
}

void
saveWorkUnit(const std::string &path, uint64_t fingerprint,
             const std::vector<SymState> &states)
{
    EngineCheckpoint ck;
    ck.fingerprint = fingerprint;
    ck.frontier.reserve(states.size());
    for (size_t i = 0; i < states.size(); ++i)
        ck.frontier.emplace_back(states[i], static_cast<uint32_t>(i));
    ck.save(path);
}

std::vector<SymState>
loadWorkUnit(const std::string &path, uint64_t fingerprint)
{
    EngineCheckpoint ck = EngineCheckpoint::load(path);
    if (ck.fingerprint != fingerprint) {
        GLIFS_RECOVERABLE(
            "work unit does not match this program image (stale "
            "chunk from a different run?)");
    }
    std::vector<SymState> states;
    states.reserve(ck.frontier.size());
    for (auto &[state, node] : ck.frontier)
        states.push_back(std::move(state));
    return states;
}

void
saveSegmentResults(const std::string &path, uint64_t fingerprint,
                   const std::vector<SegmentRecord> &records)
{
    std::string body;
    ckptio::Writer w(body);
    w.u64(fingerprint);
    w.u32(static_cast<uint32_t>(records.size()));
    for (const SegmentRecord &rec : records) {
        w.str(rec.digest);
        const SegmentResult &s = rec.seg;
        w.u64(s.cycles);
        w.u16(s.endInstr);
        w.u16(s.endFsm);
        uint8_t flags = 0;
        if (s.halted)
            flags |= kHalted;
        if (s.pcUnknown)
            flags |= kPcUnknown;
        if (rec.overrun)
            flags |= kOverrun;
        const bool hasEnd = !s.halted && !rec.overrun;
        if (hasEnd)
            flags |= kHasEnd;
        if (s.taintDelta.size() > 0)
            flags |= kHasTaint;
        w.u8(flags);
        if (hasEnd)
            w.symstate(s.end);
        w.u32(static_cast<uint32_t>(s.violations.size()));
        for (const Violation &v : s.violations) {
            w.u8(static_cast<uint8_t>(v.kind));
            w.u16(v.instrAddr);
            w.u64(v.firstCycle);
            w.u32(v.count);
            w.u8(v.maskable ? 1 : 0);
            w.str(v.detail);
        }
        w.u32(static_cast<uint32_t>(s.porForks.size()));
        for (const SegmentPorFork &f : s.porForks) {
            w.u16(f.startPc);
            w.u16(f.instr);
            w.u64(f.cycle);
            w.symstate(f.fired);
        }
        if (s.taintDelta.size() > 0)
            w.plane(s.taintDelta);
    }

    std::string out;
    out.append(kMagic, sizeof(kMagic));
    ckptio::Writer hw(out);
    hw.u32(kVersion);
    hw.u32(crc32(body));
    out.append(body);

    // faultfs so a crash-recovery plan (GLIFS_FAULT_PLAN) can kill or
    // fail the worker deterministically at this write boundary.
    int fd = faultfs::open(path.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        GLIFS_RECOVERABLE("segment results: cannot write ", path);
    ssize_t n = faultfs::writeFull(fd, out.data(), out.size());
    ::close(fd);
    if (n != static_cast<ssize_t>(out.size()))
        GLIFS_RECOVERABLE("segment results: write to ", path,
                          " failed");
}

std::vector<SegmentRecord>
loadSegmentResults(const std::string &path, uint64_t fingerprint)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        GLIFS_RECOVERABLE("segment results: cannot open ", path);
    std::ostringstream oss;
    oss << in.rdbuf();
    std::string doc = oss.str();

    if (doc.size() < sizeof(kMagic) + 8 ||
        doc.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0)
        GLIFS_RECOVERABLE("segment results: bad magic in ", path);
    ckptio::Reader hr(
        std::string_view(doc).substr(sizeof(kMagic), 8));
    uint32_t version = hr.u32();
    if (version != kVersion)
        GLIFS_RECOVERABLE("segment results: unknown version ",
                          version);
    uint32_t want = hr.u32();
    std::string_view body =
        std::string_view(doc).substr(sizeof(kMagic) + 8);
    if (crc32(body.data(), body.size()) != want)
        GLIFS_RECOVERABLE("segment results: CRC mismatch in ", path);

    ckptio::Reader r(body);
    if (r.u64() != fingerprint)
        GLIFS_RECOVERABLE(
            "segment results do not match this program image");
    uint32_t count = r.u32();
    if (count > ckptio::kMaxSection)
        GLIFS_RECOVERABLE("segment results: implausible record count");
    std::vector<SegmentRecord> records;
    records.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        SegmentRecord rec;
        rec.digest = r.str();
        if (rec.digest.size() != 32)
            GLIFS_RECOVERABLE("segment results: bad digest length");
        SegmentResult &s = rec.seg;
        s.cycles = r.u64();
        s.endInstr = r.u16();
        s.endFsm = r.u16();
        uint8_t flags = r.u8();
        s.halted = flags & kHalted;
        s.pcUnknown = flags & kPcUnknown;
        rec.overrun = flags & kOverrun;
        if (flags & kHasEnd)
            s.end = r.symstate();
        uint32_t nviol = r.u32();
        if (nviol > ckptio::kMaxSection)
            GLIFS_RECOVERABLE(
                "segment results: implausible section size");
        s.violations.reserve(nviol);
        for (uint32_t j = 0; j < nviol; ++j) {
            Violation v;
            v.kind = static_cast<ViolationKind>(r.u8());
            v.instrAddr = r.u16();
            v.firstCycle = r.u64();
            v.count = r.u32();
            v.maskable = r.u8() != 0;
            v.detail = r.str();
            s.violations.push_back(std::move(v));
        }
        uint32_t npor = r.u32();
        if (npor > ckptio::kMaxSection)
            GLIFS_RECOVERABLE(
                "segment results: implausible section size");
        s.porForks.reserve(npor);
        for (uint32_t j = 0; j < npor; ++j) {
            SegmentPorFork f;
            f.startPc = r.u16();
            f.instr = r.u16();
            f.cycle = r.u64();
            f.fired = r.symstate();
            s.porForks.push_back(std::move(f));
        }
        if (flags & kHasTaint)
            s.taintDelta = r.plane();
        records.push_back(std::move(rec));
    }
    return records;
}

} // namespace glifs::explore
