#include "ift/checkpoint.hh"

#include <chrono>
#include <fstream>

#include "base/hash.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "ift/ckpt_io.hh"

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
    ckptio::Writer w(out);
    w.u64(fingerprint);
    w.u64(totalCycles);
    w.u64(pathsExplored);
    w.u64(branchPoints);
    w.u64(merges);
    w.u64(subsumptions);
    w.u8(static_cast<uint8_t>(level));

    w.u32(static_cast<uint32_t>(degradations.size()));
    for (const Degradation &d : degradations) {
        w.u8(static_cast<uint8_t>(d.level));
        w.u8(static_cast<uint8_t>(d.trigger));
        w.u8(static_cast<uint8_t>(d.severity));
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

    w.plane(everTainted);

    w.u32(static_cast<uint32_t>(table.size()));
    for (const auto &[key, state] : table) {
        w.u32(key);
        w.symstate(state);
    }

    w.u32(static_cast<uint32_t>(frontier.size()));
    for (const auto &[state, node] : frontier) {
        w.symstate(state);
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
    ckptio::Reader r(body);

    EngineCheckpoint c;
    c.fingerprint = r.u64();
    c.totalCycles = r.u64();
    c.pathsExplored = r.u64();
    c.branchPoints = r.u64();
    c.merges = r.u64();
    c.subsumptions = r.u64();
    uint8_t level = r.u8();
    if (level > static_cast<uint8_t>(DegradeLevel::PartialStop))
        GLIFS_RECOVERABLE("checkpoint: bad degrade level ", level);
    c.level = static_cast<DegradeLevel>(level);

    uint32_t ndeg = r.u32();
    if (ndeg > ckptio::kMaxSection)
        GLIFS_RECOVERABLE("checkpoint: implausible section size");
    c.degradations.reserve(ndeg);
    for (uint32_t i = 0; i < ndeg; ++i) {
        Degradation d;
        d.level = static_cast<DegradeLevel>(r.u8());
        d.trigger = static_cast<ResourceKind>(r.u8());
        d.severity = static_cast<BudgetSeverity>(r.u8());
        d.cycle = r.u64();
        d.instrAddr = r.u16();
        d.detail = r.str();
        c.degradations.push_back(std::move(d));
    }

    uint32_t nviol = r.u32();
    if (nviol > ckptio::kMaxSection)
        GLIFS_RECOVERABLE("checkpoint: implausible section size");
    c.violations.reserve(nviol);
    for (uint32_t i = 0; i < nviol; ++i) {
        Violation v;
        v.kind = static_cast<ViolationKind>(r.u8());
        v.instrAddr = r.u16();
        v.firstCycle = r.u64();
        v.count = r.u32();
        v.maskable = r.u8() != 0;
        v.detail = r.str();
        c.violations.push_back(std::move(v));
    }

    c.everTainted = r.plane();

    uint32_t ntable = r.u32();
    if (ntable > ckptio::kMaxSection)
        GLIFS_RECOVERABLE("checkpoint: implausible section size");
    c.table.reserve(ntable);
    for (uint32_t i = 0; i < ntable; ++i) {
        uint32_t key = r.u32();
        c.table.emplace_back(key, r.symstate());
    }

    uint32_t nfront = r.u32();
    if (nfront > ckptio::kMaxSection)
        GLIFS_RECOVERABLE("checkpoint: implausible section size");
    c.frontier.reserve(nfront);
    for (uint32_t i = 0; i < nfront; ++i) {
        SymState s = r.symstate();
        uint32_t node = r.u32();
        c.frontier.emplace_back(std::move(s), node);
    }

    uint32_t ntree = r.u32();
    if (ntree > ckptio::kMaxSection)
        GLIFS_RECOVERABLE("checkpoint: implausible section size");
    c.tree.reserve(ntree);
    for (uint32_t i = 0; i < ntree; ++i) {
        ExecNode n;
        n.id = r.u32();
        n.parent = static_cast<int32_t>(r.u32());
        n.startPc = r.u16();
        n.cycles = r.u64();
        n.endInstr = r.u16();
        uint8_t end = r.u8();
        if (end > static_cast<uint8_t>(PathEnd::Degraded))
            GLIFS_RECOVERABLE("checkpoint: bad path end ", end);
        n.end = static_cast<PathEnd>(end);
        c.tree.push_back(n);
    }

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
    std::string &bytes = scratchBuffer();
    encodeBody(bytes);

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        GLIFS_RECOVERABLE("checkpoint: cannot write ", path);
    out.write(kMagic, sizeof(kMagic));
    char hdr[8];
    const uint32_t crc = crc32(bytes);
    for (int i = 0; i < 4; ++i) {
        hdr[i] = static_cast<char>((kVersion >> (8 * i)) & 0xFF);
        hdr[4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
    }
    out.write(hdr, sizeof(hdr));
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
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
    char magic[8] = {};
    in.read(magic, sizeof(magic));
    if (in.gcount() != sizeof(magic) ||
        !std::equal(magic, magic + sizeof(magic), kMagic)) {
        GLIFS_RECOVERABLE("checkpoint: ", path,
                          " is not a glifs checkpoint");
    }
    char hdr[8] = {};
    in.read(hdr, sizeof(hdr));
    if (in.gcount() != sizeof(hdr))
        GLIFS_RECOVERABLE("checkpoint: truncated file");
    uint32_t version = 0;
    uint32_t wantCrc = 0;
    for (int i = 0; i < 4; ++i) {
        version |= uint32_t{static_cast<uint8_t>(hdr[i])} << (8 * i);
        wantCrc |= uint32_t{static_cast<uint8_t>(hdr[4 + i])}
                   << (8 * i);
    }
    if (version != kVersion) {
        GLIFS_RECOVERABLE("checkpoint: version ", version,
                          " unsupported (expected ", kVersion, ")");
    }

    // Slurp and verify the body before parsing: a bit flip anywhere
    // must become this one error, not a semi-plausible parse. The
    // slurp reuses the per-thread scratch, so repeated loads settle
    // into a steady-state allocation footprint.
    std::string &bytes = scratchBuffer();
    in.seekg(0, std::ios::end);
    const std::streamoff fileEnd = in.tellg();
    constexpr std::streamoff kBodyOff =
        static_cast<std::streamoff>(sizeof(kMagic) + sizeof(hdr));
    if (fileEnd < kBodyOff)
        GLIFS_RECOVERABLE("checkpoint: truncated file");
    bytes.resize(static_cast<size_t>(fileEnd - kBodyOff));
    in.seekg(kBodyOff, std::ios::beg);
    in.read(bytes.data(),
            static_cast<std::streamsize>(bytes.size()));
    if (static_cast<size_t>(in.gcount()) != bytes.size())
        GLIFS_RECOVERABLE("checkpoint: truncated file");
    if (crc32(bytes) != wantCrc)
        GLIFS_RECOVERABLE("checkpoint: ", path,
                          " failed its integrity check (corrupt or "
                          "truncated body)");
    EngineCheckpoint c = decodeBody(bytes);

    CheckpointStats &st = ckptStats();
    ++st.loads;
    st.bytesRead.set(static_cast<double>(sizeof(kMagic) + 8 +
                                         bytes.size()));
    st.loadSeconds.set(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    return c;
}

} // namespace glifs
