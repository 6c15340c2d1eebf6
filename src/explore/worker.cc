#include "explore/worker.hh"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "base/faultfs.hh"
#include "base/logging.hh"
#include "base/strutil.hh"
#include "explore/protocol.hh"
#include "ift/checkpoint.hh"
#include "ift/path_sim.hh"

namespace glifs::explore
{

namespace
{

/** Send one already-terminated line to the coordinator; false when the
 *  pipe is unusable (coordinator gone -- time to exit). */
bool
sendLine(const std::string &line)
{
    return faultfs::writeFull(kResultFd, line.data(), line.size()) ==
           static_cast<ssize_t>(line.size());
}

/**
 * Run the segment chain for one shipped execution point: the segment
 * itself, then speculative continuations while each link ends at a
 * commit with a concrete PC (the driver's continuation case). Every link is recorded under its own start digest.
 */
void
runChain(PathSim &ps, const SymState &start, uint64_t cycleCap,
         std::vector<SegmentRecord> &out)
{
    SymState cur = start;
    uint64_t spent = 0;
    for (unsigned link = 0; link < kChainSegments; ++link) {
        SegmentHooks hooks;
        uint64_t segCycles = 0;
        hooks.cycleCharged = [&] { ++segCycles; };
        hooks.poll = [&]() -> CycleAction {
            return spent + segCycles >= cycleCap ? CycleAction::Stop
                                                 : CycleAction::Continue;
        };

        SegmentRecord rec;
        rec.digest = stateDigest(cur);
        rec.seg = ps.runSegment(cur, hooks);
        spent += rec.seg.cycles;
        rec.overrun = rec.seg.stopped;
        const bool chainable = !rec.seg.halted && !rec.seg.pcUnknown &&
                               !rec.overrun;
        SymState next;
        if (chainable)
            next = rec.seg.end;
        out.push_back(std::move(rec));
        if (!chainable)
            return;
        cur = std::move(next);
    }
}

} // namespace

int
workerMain(const Soc &soc, const Policy &policy,
           const EngineConfig &cfg, const ProgramImage &image)
{
    PathSim ps(soc, policy, cfg, image);
    ps.loadProgram();
    const uint64_t fingerprint = checkpointFingerprint(
        image, ps.layout.slots(), soc.netlist().numNets());
    const uint64_t cycleCap =
        cfg.maxCycles > 0 ? cfg.maxCycles : 2'000'000;

    std::string pending;
    char buf[4096];
    while (true) {
        // Pull the next control line (blocking pipe read via faultfs
        // so read-fault plans hit the worker here).
        size_t nl;
        while ((nl = pending.find('\n')) == std::string::npos) {
            ssize_t n = faultfs::read(0, buf, sizeof(buf));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return 0; // coordinator gone (or injected read fault)
            pending.append(buf, static_cast<size_t>(n));
        }
        std::string line = pending.substr(0, nl);
        pending.erase(0, nl + 1);

        if (line.empty())
            continue;
        if (line[0] == 'q')
            return 0;
        if (line[0] != 'w')
            continue; // unknown verb: skip, stay forward-compatible

        // `w <seq> <path>`
        size_t sp1 = line.find(' ');
        size_t sp2 = line.find(' ', sp1 + 1);
        if (sp1 == std::string::npos || sp2 == std::string::npos)
            continue;
        std::string seq = line.substr(sp1 + 1, sp2 - sp1 - 1);
        std::string unitPath = line.substr(sp2 + 1);

        const auto t0 = std::chrono::steady_clock::now();
        std::vector<SegmentRecord> records;
        bool ok = true;
        try {
            std::vector<SymState> states =
                loadWorkUnit(unitPath, fingerprint);
            for (const SymState &s : states)
                runChain(ps, s, cycleCap, records);
        } catch (const RecoverableError &e) {
            // Corrupt or mismatched unit: report it lost; the
            // coordinator re-executes those entries inline.
            std::fprintf(stderr, "explore worker: %s\n", e.what());
            ok = false;
        }
        faultfs::unlink(unitPath.c_str());

        if (!ok) {
            if (!sendLine("e " + seq + "\n"))
                return 1;
            continue;
        }

        const std::string resPath = unitPath + ".res";
        try {
            saveSegmentResults(resPath, fingerprint, records);
        } catch (const RecoverableError &e) {
            std::fprintf(stderr, "explore worker: %s\n", e.what());
            if (!sendLine("e " + seq + "\n"))
                return 1;
            continue;
        }
        const uint64_t usec =
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
        if (!sendLine("r " + seq + " " + std::to_string(usec) + " " +
                      resPath + "\n"))
            return 1;
    }
}

} // namespace glifs::explore
