#include "explore/coordinator.hh"

#include <fcntl.h>
#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/faultfs.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "base/strutil.hh"
#include "base/telemetry.hh"
#include "base/trace.hh"
#include "explore/protocol.hh"
#include "explore/worker.hh"
#include "ift/checkpoint.hh"
#include "ift/path_sim.hh"

namespace glifs::explore
{

namespace
{

/** The explore.* stat catalogue (docs/OBSERVABILITY.md). */
struct ExploreStats
{
    stats::Scalar steals{"explore.steals",
                         "work-stealing queue rebalances"};
    stats::Gauge frontierSize{"explore.frontier_size",
                              "coordinator frontier size"};
    stats::Scalar summaryPrunes{
        "explore.summary_prunes",
        "worker segment results discarded (stale, duplicate or "
        "overrun)"};
    stats::Scalar workersRespawned{"explore.workers_respawned",
                                   "crashed workers respawned"};
    stats::Scalar cacheHits{"explore.cache_hits",
                            "pops served from worker segment results"};
    stats::Scalar cacheMisses{"explore.cache_misses",
                              "pops simulated inline"};
    stats::Scalar chunksShipped{"explore.chunks_shipped",
                                "work units shipped to workers"};
    stats::Scalar segmentsReceived{
        "explore.segments_received",
        "worker segment results received (before pruning)"};

    static ExploreStats &
    instance()
    {
        static ExploreStats s;
        return s;
    }
};

ExploreStats &
exStats()
{
    return ExploreStats::instance();
}

void
emitExplore(const char *phase, uint64_t worker, uint64_t cycles,
            std::string detail = {})
{
    telemetry::Writer &w = telemetry::Writer::instance();
    if (!w.enabled())
        return;
    telemetry::Event e;
    e.type = telemetry::EventType::Explore;
    e.phase = phase;
    e.worker = worker;
    e.cycles = cycles;
    e.detail = std::move(detail);
    w.emit(e);
}

/** Trace lane of an exploration worker (1 is the coordinator). */
uint32_t
workerTid(size_t idx)
{
    return static_cast<uint32_t>(2 + idx);
}

/** One execution point copied out to a worker queue. */
struct ShippedEntry
{
    std::string digest;
    SymState state;
};

/** One work unit in flight at a worker. */
struct Chunk
{
    std::vector<ShippedEntry> entries;
    std::string unitPath;
    uint64_t shipUs = 0; ///< trace clock at ship (lane span start)
};

/** One worker process slot (respawned in place on death). */
struct WorkerSlot
{
    pid_t pid = -1;
    int ctlFd = -1; ///< coordinator -> worker command lines
    int resFd = -1; ///< worker -> coordinator result lines
    bool alive = false;
    bool disabled = false; ///< respawn cap exhausted
    unsigned respawns = 0;
    std::string lineBuf;
    std::deque<ShippedEntry> queue;
    std::map<uint32_t, Chunk> outstanding;

    size_t
    load() const
    {
        size_t n = queue.size();
        for (const auto &[seq, c] : outstanding)
            n += c.entries.size();
        return n;
    }
};

/**
 * The worker fleet, as the driver's segment source (DESIGN.md §10).
 * It only ever changes *when* a segment is simulated, never what it
 * computes: the driver in ift/engine.cc owns the run and applies every
 * segment, fetched or inline, in serial order.
 */
struct Fleet final : SegmentSource
{
    const ExploreConfig &xcfg;
    std::vector<WorkerSlot> workers;
    std::vector<pid_t> pendingReap;
    std::unordered_map<std::string, SegmentResult> cache;
    std::unordered_set<std::string> queuedDigests;
    std::unordered_set<std::string> inFlight;
    std::string workDir;
    uint64_t fingerprint = 0;
    uint32_t nextSeq = 1;
    double meanInlineUs = 2000.0; ///< rolling mean of inline segments
    /** When the last miss handed a segment back to inline execution. */
    std::optional<std::chrono::steady_clock::time_point> missAt;
    bool shippingOk = true;       ///< false after a work-unit I/O error

    Fleet(const Soc &soc, const ExploreConfig &x, const ProgramImage &img)
        : xcfg(x), workers(x.jobs - 1),
          fingerprint(checkpointFingerprint(
              img, SymLayout(soc.netlist()).slots(),
              soc.netlist().numNets()))
    {
    }

    ~Fleet() override { shutdownWorkers(); }

    /**
     * Spin up the fleet (after construction, so the destructor reaps
     * whatever a throw leaves behind). Losing the scratch dir or every
     * worker is not fatal: the driver's inline path is always
     * sufficient. A worker dying with work queued must surface as
     * EPIPE on the next ctl write (-> markDead + reshard), never as a
     * coordinator-killing SIGPIPE.
     */
    void
    start()
    {
        std::signal(SIGPIPE, SIG_IGN);
        char dirTemplate[] = "/tmp/glifs-explore-XXXXXX";
        if (::mkdtemp(dirTemplate)) {
            workDir = dirTemplate;
        } else {
            GLIFS_WARN("explore: cannot create scratch dir; running "
                      "without speculation");
            shippingOk = false;
        }
        trace::Tracer &tr = trace::Tracer::instance();
        if (tr.enabled())
            tr.threadName(1, "coordinator");
        for (size_t i = 0; shippingOk && i < workers.size(); ++i) {
            try {
                spawnWorker(i);
            } catch (const RecoverableError &e) {
                GLIFS_WARN("explore: worker ", i,
                          " failed to start: ", e.what());
            }
        }
    }

    const std::string &
    digestOf(FrontierEntry &e)
    {
        if (e.digest.empty())
            e.digest = stateDigest(e.state);
        return e.digest;
    }

    // --- worker lifecycle --------------------------------------------

    void
    spawnWorker(size_t idx)
    {
        WorkerSlot &w = workers[idx];
        int ctl[2];
        int res[2];
        if (faultfs::pipe2(ctl, O_CLOEXEC) != 0)
            GLIFS_RECOVERABLE("explore: cannot create control pipe");
        if (faultfs::pipe2(res, O_CLOEXEC) != 0) {
            ::close(ctl[0]);
            ::close(ctl[1]);
            GLIFS_RECOVERABLE("explore: cannot create result pipe");
        }

        // argv: <audit> --explore-worker <firmware + config tail>.
        std::vector<std::string> args;
        args.push_back(xcfg.auditBinary);
        args.push_back("--explore-worker");
        args.insert(args.end(), xcfg.workerArgs.begin(),
                    xcfg.workerArgs.end());
        std::vector<char *> argv;
        argv.reserve(args.size() + 1);
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        // Transient fork pressure (EAGAIN/ENOMEM on a loaded box)
        // deserves a bounded backoff ladder, same as the batch
        // scheduler; anything else is a real failure.
        pid_t pid = -1;
        for (unsigned attempt = 1; attempt <= 6; ++attempt) {
            pid = faultfs::fork();
            if (pid >= 0)
                break;
            if (errno != EAGAIN && errno != ENOMEM &&
                errno != EINTR) {
                break;
            }
            unsigned ms = std::min(10u << (attempt - 1), 160u);
            ::usleep(ms * 1000);
        }
        if (pid < 0) {
            ::close(ctl[0]);
            ::close(ctl[1]);
            ::close(res[0]);
            ::close(res[1]);
            GLIFS_RECOVERABLE("explore: fork failed: ",
                              std::strerror(errno));
        }

        if (pid == 0) {
            // Child: control lines on stdin, results on kResultFd,
            // stdout silenced (the worker owns no human output).
            ::dup2(ctl[0], 0); // dup2 clears O_CLOEXEC on the copy
            if (res[1] == kResultFd)
                ::fcntl(res[1], F_SETFD, 0);
            else
                ::dup2(res[1], kResultFd);
            int devnull = ::open("/dev/null", O_WRONLY);
            if (devnull >= 0)
                ::dup2(devnull, 1);
            // Worker-only fault injection: the crash-recovery tests
            // plant plans in the children without arming the
            // coordinator's own file I/O.
            const char *plan = ::getenv("GLIFS_EXPLORE_FAULT_PLAN");
            if (plan && *plan)
                ::setenv("GLIFS_FAULT_PLAN", plan, 1);
            ::execv(argv[0], argv.data());
            _exit(127);
        }

        ::close(ctl[0]);
        ::close(res[1]);
        w.pid = pid;
        w.ctlFd = ctl[1];
        w.resFd = res[0];
        w.alive = true;
        w.lineBuf.clear();
        trace::Tracer &tr = trace::Tracer::instance();
        if (tr.enabled()) {
            tr.threadName(workerTid(idx),
                          detail::concat("explore worker ", idx));
        }
    }

    void
    markDead(size_t idx)
    {
        WorkerSlot &w = workers[idx];
        if (!w.alive)
            return;
        w.alive = false;
        if (w.ctlFd >= 0)
            ::close(w.ctlFd);
        if (w.resFd >= 0)
            ::close(w.resFd);
        w.ctlFd = -1;
        w.resFd = -1;
        if (w.pid > 0)
            pendingReap.push_back(w.pid);
        w.pid = -1;
        // Whatever it was chewing on goes back to the front of its
        // queue; the coordinator can always run it inline instead.
        for (auto &[seq, chunk] : w.outstanding) {
            faultfs::unlink(chunk.unitPath.c_str());
            faultfs::unlink((chunk.unitPath + ".res").c_str());
            for (auto it = chunk.entries.rbegin();
                 it != chunk.entries.rend(); ++it) {
                inFlight.erase(it->digest);
                queuedDigests.insert(it->digest);
                w.queue.push_front(std::move(*it));
            }
        }
        w.outstanding.clear();
    }

    void
    reapZombies(bool block)
    {
        for (size_t i = 0; i < pendingReap.size();) {
            int st = 0;
            pid_t r = faultfs::waitpid(pendingReap[i], &st,
                                       block ? 0 : WNOHANG);
            if (r == pendingReap[i] ||
                (r < 0 && errno == ECHILD)) {
                pendingReap.erase(pendingReap.begin() + i);
            } else {
                ++i;
            }
        }
    }

    void
    respawnDead()
    {
        reapZombies(false);
        for (size_t i = 0; i < workers.size(); ++i) {
            WorkerSlot &w = workers[i];
            if (w.alive || w.disabled)
                continue;
            if (w.respawns >= xcfg.respawnCap) {
                // Slot given up: spill its queue to the survivors (or
                // to nobody -- the coordinator runs everything inline
                // then).
                w.disabled = true;
                WorkerSlot *tgt = nullptr;
                for (WorkerSlot &o : workers) {
                    if (o.alive &&
                        (!tgt || o.load() < tgt->load())) {
                        tgt = &o;
                    }
                }
                while (!w.queue.empty()) {
                    if (tgt) {
                        tgt->queue.push_back(
                            std::move(w.queue.front()));
                    } else {
                        queuedDigests.erase(w.queue.front().digest);
                    }
                    w.queue.pop_front();
                }
                continue;
            }
            ++w.respawns;
            try {
                spawnWorker(i);
            } catch (const RecoverableError &e) {
                GLIFS_WARN("explore: respawn of worker ", i,
                          " failed: ", e.what());
                continue;
            }
            ++exStats().workersRespawned;
            emitExplore("respawn", i, 0);
            trace::Tracer &tr = trace::Tracer::instance();
            if (tr.enabled()) {
                tr.instant("explore", "respawn",
                           trace::Args()
                               .add("worker",
                                    static_cast<uint64_t>(i))
                               .str(),
                           workerTid(i));
            }
        }
    }

    void
    shutdownWorkers()
    {
        for (size_t i = 0; i < workers.size(); ++i) {
            WorkerSlot &w = workers[i];
            if (!w.alive)
                continue;
            // Polite quit first; SIGTERM cuts a worker that is deep
            // in a speculative chain we no longer want.
            const char q[] = "q\n";
            ssize_t rc [[maybe_unused]] = ::write(w.ctlFd, q, 2);
            ::kill(w.pid, SIGTERM);
            markDead(i);
        }
        for (pid_t pid : pendingReap)
            ::kill(pid, SIGTERM);
        reapZombies(true);
        if (!workDir.empty()) {
            // Sweep whatever units/results the shutdown stranded.
            if (DIR *d = ::opendir(workDir.c_str())) {
                while (struct dirent *de = ::readdir(d)) {
                    if (de->d_name[0] == '.')
                        continue;
                    ::unlink(
                        (workDir + "/" + de->d_name).c_str());
                }
                ::closedir(d);
            }
            ::rmdir(workDir.c_str());
            workDir.clear();
        }
    }

    // --- result ingestion --------------------------------------------

    void
    handleResultLine(size_t idx, const std::string &line)
    {
        WorkerSlot &w = workers[idx];
        if (line.empty())
            return;
        std::istringstream iss(line);
        std::string verb;
        uint32_t seq = 0;
        iss >> verb >> seq;
        auto it = w.outstanding.find(seq);
        if (it == w.outstanding.end())
            return; // stale seq (left over from a pre-death chunk)
        Chunk chunk = std::move(it->second);
        w.outstanding.erase(it);
        for (const ShippedEntry &se : chunk.entries)
            inFlight.erase(se.digest);

        if (verb == "e") {
            // Unit lost worker-side; the entries simply fall back to
            // inline execution.
            exStats().summaryPrunes +=
                static_cast<uint64_t>(chunk.entries.size());
            faultfs::unlink(chunk.unitPath.c_str());
            return;
        }
        if (verb != "r")
            return;
        uint64_t usec = 0;
        std::string resPath;
        iss >> usec >> resPath;

        std::vector<SegmentRecord> records;
        try {
            records = loadSegmentResults(resPath, fingerprint);
        } catch (const RecoverableError &e) {
            GLIFS_WARN("explore: dropping results from worker ", idx,
                      ": ", e.what());
            faultfs::unlink(resPath.c_str());
            return;
        }
        faultfs::unlink(resPath.c_str());

        uint64_t segCycles = 0;
        uint64_t pruned = 0;
        for (SegmentRecord &rec : records) {
            ++exStats().segmentsReceived;
            segCycles += rec.seg.cycles;
            if (rec.overrun || cache.count(rec.digest)) {
                ++exStats().summaryPrunes;
                ++pruned;
                continue;
            }
            cache.emplace(std::move(rec.digest),
                          std::move(rec.seg));
        }
        emitExplore("result", idx, segCycles,
                    detail::concat(records.size(), " segments, ",
                                   pruned, " pruned"));
        if (pruned > 0)
            emitExplore("prune", idx, 0,
                        detail::concat(pruned, " records"));
        trace::Tracer &tr = trace::Tracer::instance();
        if (tr.enabled()) {
            // The worker's wall time, on its own lane.
            uint64_t nowUs = tr.nowUs();
            uint64_t start =
                nowUs >= usec ? nowUs - usec : chunk.shipUs;
            tr.complete("explore", "segments", start, usec,
                        trace::Args()
                            .add("records",
                                 static_cast<uint64_t>(
                                     records.size()))
                            .add("pruned", pruned)
                            .add("cycles", segCycles)
                            .str(),
                        workerTid(idx));
        }
    }

    /** Pump worker result pipes; waits at most @p timeoutMs. */
    void
    drainResults(int timeoutMs)
    {
        std::vector<struct pollfd> fds;
        std::vector<size_t> idxOf;
        for (size_t i = 0; i < workers.size(); ++i) {
            if (!workers[i].alive)
                continue;
            fds.push_back({workers[i].resFd, POLLIN, 0});
            idxOf.push_back(i);
        }
        if (fds.empty())
            return;
        int n = faultfs::poll(fds.data(), fds.size(), timeoutMs);
        if (n <= 0)
            return;
        char buf[4096];
        for (size_t k = 0; k < fds.size(); ++k) {
            if (fds[k].revents == 0)
                continue;
            size_t idx = idxOf[k];
            WorkerSlot &w = workers[idx];
            bool dead = false;
            if (fds[k].revents & POLLIN) {
                ssize_t r = faultfs::read(w.resFd, buf, sizeof(buf));
                if (r > 0) {
                    w.lineBuf.append(buf,
                                     static_cast<size_t>(r));
                } else if (r == 0 ||
                           (r < 0 && errno != EINTR &&
                            errno != EAGAIN)) {
                    dead = true;
                }
            } else if (fds[k].revents & (POLLHUP | POLLERR)) {
                dead = true;
            }
            size_t nl;
            while ((nl = w.lineBuf.find('\n')) !=
                   std::string::npos) {
                std::string line = w.lineBuf.substr(0, nl);
                w.lineBuf.erase(0, nl + 1);
                handleResultLine(idx, line);
            }
            if (dead)
                markDead(idx);
        }
    }

    // --- shipping and stealing ---------------------------------------

    bool
    anyAlive() const
    {
        for (const WorkerSlot &w : workers) {
            if (w.alive)
                return true;
        }
        return false;
    }

    WorkerSlot *
    lightestAlive()
    {
        WorkerSlot *best = nullptr;
        for (WorkerSlot &w : workers) {
            if (w.alive && (!best || w.load() < best->load()))
                best = &w;
        }
        return best;
    }

    /** Remove a queued (not yet shipped) entry by digest. */
    void
    dropQueued(const std::string &dg)
    {
        queuedDigests.erase(dg);
        for (WorkerSlot &w : workers) {
            for (auto it = w.queue.begin(); it != w.queue.end();
                 ++it) {
                if (it->digest == dg) {
                    w.queue.erase(it);
                    return;
                }
            }
        }
    }

    void
    shipChunks(size_t idx)
    {
        WorkerSlot &w = workers[idx];
        trace::Tracer &tr = trace::Tracer::instance();
        while (w.alive && shippingOk &&
               w.outstanding.size() < xcfg.maxOutstanding &&
               !w.queue.empty()) {
            Chunk chunk;
            std::vector<SymState> states;
            while (chunk.entries.size() < xcfg.chunkEntries &&
                   !w.queue.empty()) {
                ShippedEntry se = std::move(w.queue.front());
                w.queue.pop_front();
                if (cache.count(se.digest)) {
                    // Answered meanwhile by a speculative chain.
                    queuedDigests.erase(se.digest);
                    continue;
                }
                states.push_back(se.state);
                chunk.entries.push_back(std::move(se));
            }
            if (chunk.entries.empty())
                return;
            uint32_t seq = nextSeq++;
            chunk.unitPath =
                detail::concat(workDir, "/u", seq);
            try {
                saveWorkUnit(chunk.unitPath, fingerprint, states);
            } catch (const RecoverableError &e) {
                // Scratch space is gone; stop speculating, the
                // serial inline path needs no files.
                GLIFS_WARN("explore: shipping disabled: ", e.what());
                shippingOk = false;
                for (auto it = chunk.entries.rbegin();
                     it != chunk.entries.rend(); ++it)
                    w.queue.push_front(std::move(*it));
                return;
            }
            std::string cmd = detail::concat("w ", seq, " ",
                                             chunk.unitPath, "\n");
            if (::write(w.ctlFd, cmd.data(), cmd.size()) !=
                static_cast<ssize_t>(cmd.size())) {
                faultfs::unlink(chunk.unitPath.c_str());
                for (auto it = chunk.entries.rbegin();
                     it != chunk.entries.rend(); ++it)
                    w.queue.push_front(std::move(*it));
                markDead(idx);
                return;
            }
            for (const ShippedEntry &se : chunk.entries) {
                queuedDigests.erase(se.digest);
                inFlight.insert(se.digest);
            }
            chunk.shipUs = tr.enabled() ? tr.nowUs() : 0;
            ++exStats().chunksShipped;
            emitExplore("ship", idx,
                        static_cast<uint64_t>(
                            chunk.entries.size()));
            if (tr.enabled()) {
                tr.instant("explore", "ship",
                           trace::Args()
                               .add("seq", seq)
                               .add("entries",
                                    static_cast<uint64_t>(
                                        chunk.entries.size()))
                               .str(),
                           workerTid(idx));
            }
            w.outstanding.emplace(seq, std::move(chunk));
        }
    }

    void
    scheduleShipping(std::vector<FrontierEntry> &frontier)
    {
        if (!shippingOk || !anyAlive() || frontier.empty())
            return;
        const size_t perWorker =
            xcfg.chunkEntries * (xcfg.maxOutstanding + 1);

        // How many fresh entries the fleet could absorb.
        size_t deficit = 0;
        for (const WorkerSlot &w : workers) {
            if (!w.alive)
                continue;
            size_t l = w.load();
            if (l < perWorker)
                deficit += perWorker - l;
        }

        // Walk down from the top of the stack (the entry just popped is
        // the driver's own): LIFO order means these are the
        // soonest-needed entries. The scan is bounded so a huge
        // frontier does not turn every iteration into a full sweep.
        size_t scanned = 0;
        const size_t scanCap = std::max<size_t>(4 * deficit, 64);
        for (size_t i = frontier.size();
             i-- > 0 && deficit > 0 && scanned < scanCap;) {
            ++scanned;
            FrontierEntry &e = frontier[i];
            if (e.cont)
                continue;
            const std::string &dg = digestOf(e);
            if (cache.count(dg) || inFlight.count(dg) ||
                queuedDigests.count(dg)) {
                continue;
            }
            WorkerSlot *tgt = lightestAlive();
            if (!tgt || tgt->load() >= perWorker)
                break;
            tgt->queue.push_back(ShippedEntry{dg, e.state});
            queuedDigests.insert(dg);
            --deficit;
        }

        // Work stealing: an idle worker raids the most loaded queue.
        for (size_t i = 0; i < workers.size(); ++i) {
            WorkerSlot &w = workers[i];
            if (!w.alive || w.load() != 0)
                continue;
            WorkerSlot *fat = nullptr;
            for (WorkerSlot &o : workers) {
                if (&o != &w && o.alive &&
                    o.queue.size() > 1 &&
                    (!fat || o.queue.size() > fat->queue.size()))
                    fat = &o;
            }
            if (!fat)
                continue;
            size_t take = fat->queue.size() / 2;
            for (size_t k = 0; k < take; ++k) {
                w.queue.push_back(std::move(fat->queue.back()));
                fat->queue.pop_back();
            }
            ++exStats().steals;
            emitExplore("steal", i,
                        static_cast<uint64_t>(take),
                        detail::concat("from worker ",
                                       static_cast<size_t>(
                                           fat - workers.data())));
            trace::Tracer &tr = trace::Tracer::instance();
            if (tr.enabled()) {
                tr.instant("explore", "steal",
                           trace::Args()
                               .add("entries",
                                    static_cast<uint64_t>(take))
                               .add("from",
                                    static_cast<uint64_t>(
                                        fat - workers.data()))
                               .str(),
                           workerTid(i));
            }
        }

        for (size_t i = 0; i < workers.size(); ++i)
            shipChunks(i);
    }

    /**
     * The next pop is being computed by a live worker right now: give
     * it a moment to land before re-simulating inline. Purely a
     * performance heuristic -- either way the same segment result is
     * applied.
     */
    bool
    waitForTop(const std::string &dg)
    {
        const double budgetUs =
            std::clamp(4.0 * meanInlineUs, 10'000.0, 500'000.0);
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(
                static_cast<int64_t>(budgetUs));
        while (inFlight.count(dg) && !cache.count(dg)) {
            auto now = std::chrono::steady_clock::now();
            if (now >= deadline)
                break;
            auto leftMs =
                std::chrono::duration_cast<
                    std::chrono::milliseconds>(deadline - now)
                    .count();
            drainResults(static_cast<int>(
                std::clamp<long long>(leftMs, 1, 5)));
            respawnDead(); // a dead owner un-inflights the digest
        }
        return cache.count(dg) > 0;
    }

    // --- the driver's hook -------------------------------------------

    const SegmentResult *
    segmentFor(FrontierEntry &top, std::vector<FrontierEntry> &frontier,
               uint64_t cycleRoom) override
    {
        if (missAt) {
            // The driver has simulated the last miss inline since.
            const double us = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() -
                                  *missAt)
                                  .count();
            meanInlineUs = 0.9 * meanInlineUs + 0.1 * us;
            missAt.reset();
        }
        exStats().frontierSize.set(
            static_cast<double>(frontier.size() + 1));
        drainResults(0);
        respawnDead();
        scheduleShipping(frontier);

        const std::string &dg = digestOf(top);
        auto hit = cache.find(dg);
        if (hit == cache.end() && inFlight.count(dg) && waitForTop(dg))
            hit = cache.find(dg);
        if (hit == cache.end() && queuedDigests.count(dg)) {
            // About to run it inline; no point having a worker
            // duplicate the effort.
            dropQueued(dg);
        }
        if (hit != cache.end() && hit->second.cycles < cycleRoom) {
            ++exStats().cacheHits;
            return &hit->second;
        }
        ++exStats().cacheMisses;
        missAt = std::chrono::steady_clock::now();
        return nullptr;
    }
};

} // namespace

ParallelEngine::ParallelEngine(const Soc &s, const Policy &p,
                               const EngineConfig &c, ExploreConfig x)
    : soc(s), policy(p), cfg(c), xcfg(std::move(x))
{
    // Workers rebuild their config from the CLI and never run the
    // *-logic give-up, so *-logic runs stay serial.
    GLIFS_ASSERT(xcfg.jobs >= 2 && !cfg.starLogicMode,
                 "ParallelEngine needs at least 2 jobs and no *-logic "
                 "mode (use IftEngine for serial runs)");
}

EngineResult
ParallelEngine::run(const ProgramImage &image,
                    const EngineCheckpoint *resume)
{
    Fleet fleet(soc, xcfg, image);
    fleet.start();
    return IftEngine(soc, policy, cfg).run(image, resume, &fleet);
}

} // namespace glifs::explore
