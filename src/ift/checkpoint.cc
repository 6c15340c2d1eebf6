#include "ift/checkpoint.hh"

#include <chrono>
#include <fstream>

#include "base/bytes.hh"
#include "base/hash.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "base/trace.hh"

namespace glifs
{

namespace
{

constexpr char kMagic[8] = {'G', 'L', 'F', 'S', 'C', 'K', 'P', 'T'};

/** Snapshot size/latency accounting (docs/OBSERVABILITY.md). */
struct CheckpointStats
{
    stats::Scalar saves{"checkpoint.saves", "snapshots written"};
    stats::Scalar loads{"checkpoint.loads", "snapshots loaded"};
    stats::Gauge bytesWritten{"checkpoint.bytes_written",
                              "size of the last snapshot written"};
    stats::Gauge bytesRead{"checkpoint.bytes_read",
                           "size of the last snapshot loaded"};
    stats::Gauge saveSeconds{"checkpoint.save_seconds",
                             "wall time of the last save"};
    stats::Gauge loadSeconds{"checkpoint.load_seconds",
                             "wall time of the last load"};
};

CheckpointStats &
ckptStats()
{
    static CheckpointStats s;
    return s;
}

/**
 * Per-thread scratch buffer for save/load bodies. Snapshot bodies of
 * one run are all about the same size, so after the first call the
 * serialize path performs no heap allocation beyond string payloads.
 */
std::string &
scratchBuffer()
{
    static thread_local std::string buf;
    buf.clear();
    return buf;
}

void
writePlane(bytes::Writer &w, const BitPlane &p)
{
    w.u64(p.size());
    for (uint64_t word : p.words())
        w.u64(word);
}

void
writeState(bytes::Writer &w, const SymState &s)
{
    writePlane(w, s.knownPlane());
    writePlane(w, s.valuePlane());
    writePlane(w, s.taintPlane());
}

/** A plane, or an empty one with @p r bad when its words would run
 *  past the bytes left: the size field is checked before it sizes an
 *  allocation. */
BitPlane
readPlane(bytes::Reader &r)
{
    const uint64_t nbits = r.u64();
    const uint64_t words = nbits / 64 + (nbits % 64 != 0);
    if (words > r.remaining() / 8) {
        r.fail();
        return {};
    }
    BitPlane p(static_cast<size_t>(nbits));
    for (uint64_t &word : p.words())
        word = r.u64();
    return p;
}

SymState
readState(bytes::Reader &r)
{
    BitPlane k = readPlane(r);
    BitPlane v = readPlane(r);
    BitPlane t = readPlane(r);
    SymState s;
    if (k.size() != v.size() || v.size() != t.size())
        r.fail();
    else
        s.setPlanes(std::move(k), std::move(v), std::move(t));
    return s;
}

} // namespace

uint64_t
checkpointFingerprint(const ProgramImage &image, size_t slots,
                      size_t nets)
{
    // FNV-1a over the image words, then the layout geometry.
    uint64_t h = 14695981039346656037ULL;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xFF;
            h *= 1099511628211ULL;
        }
    };
    for (uint16_t w : image.words)
        mix(w);
    mix(image.usedWords);
    mix(slots);
    mix(nets);
    return h;
}

void
EngineCheckpoint::encodeBody(std::string &out) const
{
    bytes::Writer w(out);
    w.u64(fingerprint);
    w.u64(totalCycles);
    w.u64(pathsExplored);
    w.u64(branchPoints);
    w.u64(merges);
    w.u64(subsumptions);
    w.u8(0); // the retired ladder position

    w.u32(static_cast<uint32_t>(degradations.size()));
    for (const Degradation &d : degradations) {
        w.u8(static_cast<uint8_t>(d.level));
        w.u8(static_cast<uint8_t>(d.trigger));
        w.u8(1); // the retired severity: every degradation is hard
        w.u64(d.cycle);
        w.u16(d.instrAddr);
        w.str(d.detail);
    }

    w.u32(static_cast<uint32_t>(violations.size()));
    for (const Violation &v : violations) {
        w.u8(static_cast<uint8_t>(v.kind));
        w.u16(v.instrAddr);
        w.u64(v.firstCycle);
        w.u32(v.count);
        w.u8(v.maskable ? 1 : 0);
        w.str(v.detail);
    }

    writePlane(w, everTainted);

    w.u32(static_cast<uint32_t>(table.size()));
    for (const auto &[key, state] : table) {
        w.u32(key);
        writeState(w, state);
    }

    w.u32(static_cast<uint32_t>(frontier.size()));
    for (const auto &[state, node] : frontier) {
        writeState(w, state);
        w.u32(node);
    }

    w.u32(static_cast<uint32_t>(tree.size()));
    for (const ExecNode &n : tree) {
        w.u32(n.id);
        w.u32(static_cast<uint32_t>(n.parent));
        w.u16(n.startPc);
        w.u64(n.cycles);
        w.u16(n.endInstr);
        w.u8(static_cast<uint8_t>(n.end));
    }
}

EngineCheckpoint
EngineCheckpoint::decodeBody(std::string_view body)
{
    bytes::Reader r(body);

    EngineCheckpoint c;
    c.fingerprint = r.u64();
    c.totalCycles = r.u64();
    c.pathsExplored = r.u64();
    c.branchPoints = r.u64();
    c.merges = r.u64();
    c.subsumptions = r.u64();
    // Written by an older build after widened merging: the frontier
    // holds bit-enumerated successors this build would never explore.
    if (uint8_t ladder = r.u8(); ladder != 0)
        GLIFS_RECOVERABLE("checkpoint: taken on retired degradation "
                          "rung ", ladder);

    // Every loop stops once the reader went bad, so a count is never
    // trusted past the bytes that are really there.
    for (uint32_t i = 0, n = r.count(); i < n && !r.bad(); ++i) {
        Degradation d;
        d.level = static_cast<DegradeLevel>(r.u8());
        d.trigger = static_cast<ResourceKind>(r.u8());
        r.u8(); // the retired severity
        d.cycle = r.u64();
        d.instrAddr = r.u16();
        d.detail = r.str();
        c.degradations.push_back(std::move(d));
    }

    for (uint32_t i = 0, n = r.count(); i < n && !r.bad(); ++i) {
        Violation v;
        v.kind = static_cast<ViolationKind>(r.u8());
        v.instrAddr = r.u16();
        v.firstCycle = r.u64();
        v.count = r.u32();
        v.maskable = r.u8() != 0;
        v.detail = r.str();
        c.violations.push_back(std::move(v));
    }

    c.everTainted = readPlane(r);

    for (uint32_t i = 0, n = r.count(); i < n && !r.bad(); ++i) {
        uint32_t key = r.u32();
        c.table.emplace_back(key, readState(r));
    }

    for (uint32_t i = 0, n = r.count(); i < n && !r.bad(); ++i) {
        SymState s = readState(r);
        uint32_t node = r.u32();
        c.frontier.emplace_back(std::move(s), node);
    }

    for (uint32_t i = 0, n = r.count(); i < n && !r.bad(); ++i) {
        ExecNode e;
        e.id = r.u32();
        e.parent = static_cast<int32_t>(r.u32());
        e.startPc = r.u16();
        e.cycles = r.u64();
        e.endInstr = r.u16();
        const uint8_t end = r.u8();
        if (end > static_cast<uint8_t>(PathEnd::Degraded))
            r.fail();
        e.end = static_cast<PathEnd>(end);
        c.tree.push_back(e);
    }

    if (r.bad())
        GLIFS_RECOVERABLE("checkpoint: malformed body (a short read, "
                          "an implausible length or a bad field)");
    return c;
}

void
EngineCheckpoint::save(const std::string &path) const
{
    GLIFS_TRACE_SCOPE("checkpoint", "save");
    const auto t0 = std::chrono::steady_clock::now();

    // Serialize the body to a buffer first so its CRC-32 can sit in
    // the header: load() then verifies the whole body before parsing
    // a byte of it, turning any on-disk corruption into one clean
    // RecoverableError instead of a garbage parse. The scratch is
    // per-thread and reused across saves, so the serialize path does
    // not re-allocate its working set on every snapshot.
    std::string &body = scratchBuffer();
    encodeBody(body);
    std::string header(kMagic, sizeof(kMagic));
    bytes::Writer h(header);
    h.u32(kVersion);
    h.u32(crc32(body));

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        GLIFS_RECOVERABLE("checkpoint: cannot write ", path);
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    out.flush();
    if (!out)
        GLIFS_RECOVERABLE("checkpoint: write to ", path, " failed");

    CheckpointStats &st = ckptStats();
    ++st.saves;
    st.bytesWritten.set(static_cast<double>(out.tellp()));
    st.saveSeconds.set(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
}

EngineCheckpoint
EngineCheckpoint::load(const std::string &path)
{
    GLIFS_TRACE_SCOPE("checkpoint", "load");
    const auto t0 = std::chrono::steady_clock::now();
    std::ifstream in(path, std::ios::binary);
    if (!in)
        GLIFS_RECOVERABLE("checkpoint: cannot open ", path);

    // Slurp into the per-thread scratch, so repeated loads settle into
    // a steady-state allocation footprint. No size the file system
    // reports is trusted: a short file is caught below like any other.
    std::string &file = scratchBuffer();
    char chunk[1 << 16];
    do {
        in.read(chunk, sizeof(chunk));
        file.append(chunk, static_cast<size_t>(in.gcount()));
    } while (in);

    bytes::Reader r(file);
    if (r.take(sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic)))
        GLIFS_RECOVERABLE("checkpoint: ", path,
                          " is not a glifs checkpoint");
    const uint32_t version = r.u32();
    const uint32_t wantCrc = r.u32();
    if (r.bad())
        GLIFS_RECOVERABLE("checkpoint: truncated file");
    if (version != kVersion) {
        GLIFS_RECOVERABLE("checkpoint: version ", version,
                          " unsupported (expected ", kVersion, ")");
    }

    // Verify the body before parsing: a bit flip anywhere must become
    // this one error, not a semi-plausible parse.
    const std::string_view body = r.take(r.remaining());
    if (crc32(body.data(), body.size()) != wantCrc)
        GLIFS_RECOVERABLE("checkpoint: ", path,
                          " failed its integrity check (corrupt or "
                          "truncated body)");
    EngineCheckpoint c = decodeBody(body);

    CheckpointStats &st = ckptStats();
    ++st.loads;
    st.bytesRead.set(static_cast<double>(file.size()));
    st.loadSeconds.set(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    return c;
}

} // namespace glifs
