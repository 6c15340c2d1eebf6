#include "batch/scheduler.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "base/faultfs.hh"
#include "base/logging.hh"
#include "base/stats.hh"

namespace glifs::batch
{

namespace
{

using Clock = std::chrono::steady_clock;

struct SchedulerStats
{
    stats::Scalar forkRetries{"batch.fork_retries",
                              "transient fork failures retried with "
                              "backoff"};
    stats::Scalar spawnFailures{"batch.spawn_failures",
                                "tasks abandoned because fork kept "
                                "failing past the retry cap"};
    stats::Scalar stallSigterm{"batch.stall_sigterm",
                               "workers SIGTERMed by the progress "
                               "watchdog"};
    stats::Scalar stallSigkill{"batch.stall_sigkill",
                               "stalled workers that ignored SIGTERM "
                               "and were SIGKILLed"};
    stats::Scalar telemetryFrames{"batch.telemetry_frames",
                                  "telemetry events decoded from "
                                  "worker pipes"};
    stats::Scalar telemetryBytes{"batch.telemetry_bytes",
                                 "raw bytes read off worker telemetry "
                                 "pipes"};
    stats::Scalar telemetryCrcErrors{"batch.telemetry_crc_errors",
                                     "telemetry frames rejected for a "
                                     "CRC or payload mismatch"};
    stats::Scalar telemetryTorn{"batch.telemetry_torn_streams",
                                "worker telemetry streams that ended "
                                "in a half-written frame (killed "
                                "worker)"};
    stats::Scalar telemetryPipeFailures{"batch.telemetry_pipe_failures",
                                        "telemetry pipes that could "
                                        "not be created (worker ran "
                                        "without one)"};
};

SchedulerStats &
schedStats()
{
    static SchedulerStats s;
    return s;
}

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

} // namespace

struct ProcessScheduler::Running
{
    ProcTask task;
    pid_t pid = -1;
    Clock::time_point started;
    bool killed = false;       ///< SIGKILL sent (backstop or stall)
    // Stall-watchdog state.
    Clock::time_point lastProgress;
    bool termSent = false;
    Clock::time_point termTime;
    // Telemetry-pipe state (-1 = no pipe / already closed).
    int telFd = -1;
    telemetry::Reader reader;
};

ProcessScheduler::ProcessScheduler(unsigned jobs)
    : jobs(jobs > 0 ? jobs : 1)
{}

void
ProcessScheduler::submit(ProcTask task)
{
    GLIFS_ASSERT(!task.argv.empty(), "ProcTask needs an argv");
    pending.push_back(std::move(task));
}

bool
ProcessScheduler::spawn(ProcTask task, std::vector<Running> &running)
{
    // Build the char* view before forking; the vector owns the bytes.
    std::vector<char *> argv;
    argv.reserve(task.argv.size() + 1);
    for (std::string &arg : task.argv)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    // The telemetry pipe, when asked for. Failure to create one is a
    // degraded-observability event, never a failed task: the worker
    // still runs, its --telemetry-fd points at nothing, and its writer
    // self-disables on the first emit.
    int telPipe[2] = {-1, -1};
    if (task.telemetryPipe &&
        faultfs::pipe2(telPipe, O_CLOEXEC | O_NONBLOCK) != 0) {
        GLIFS_WARN("telemetry pipe for task ", task.id,
                   " failed: ", std::strerror(errno),
                   "; worker runs unobserved, stall watchdog off");
        ++schedStats().telemetryPipeFailures;
        telPipe[0] = telPipe[1] = -1;
    }

    // A loaded box can transiently refuse to fork (EAGAIN: pid/rlimit
    // pressure; ENOMEM). Backing off and retrying turns a fatal batch
    // abort into a hiccup; anything still failing after the capped
    // ladder is reported as a spawn failure for that one task.
    pid_t pid = -1;
    for (unsigned attempt = 0; attempt < 6; ++attempt) {
        if (attempt > 0) {
            ++schedStats().forkRetries;
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::min(10u << (attempt - 1), 160u)));
        }
        pid = faultfs::fork();
        if (pid >= 0 ||
            (errno != EAGAIN && errno != ENOMEM && errno != EINTR))
            break;
    }
    if (pid < 0) {
        GLIFS_WARN("fork failed persistently for task ", task.id,
                   ": ", std::strerror(errno));
        ++schedStats().spawnFailures;
        if (telPipe[0] >= 0) {
            ::close(telPipe[0]);
            ::close(telPipe[1]);
        }
        return false;
    }
    if (pid == 0) {
        // Child: plant the telemetry write end on its contract fd
        // *before* the log redirect (open() hands out the lowest free
        // fd and must not claim it), then redirect stdout+stderr and
        // exec. Only async-signal-safe calls from here on.
        if (telPipe[1] >= 0) {
            if (telPipe[1] != kTelemetryChildFd) {
                // dup2 clears O_CLOEXEC on the duplicate; the
                // original CLOEXEC ends vanish at exec.
                ::dup2(telPipe[1], kTelemetryChildFd);
            } else {
                // Already on the contract fd: dup2(fd, fd) would keep
                // O_CLOEXEC set, so clear it explicitly.
                ::fcntl(telPipe[1], F_SETFD, 0);
            }
        }
        if (!task.outputPath.empty()) {
            int fd = ::open(task.outputPath.c_str(),
                            O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                ::dup2(fd, STDOUT_FILENO);
                ::dup2(fd, STDERR_FILENO);
                if (fd > STDERR_FILENO)
                    ::close(fd);
            }
        }
        ::execv(argv[0], argv.data());
        _exit(127); // exec failed; reported as a crash-free exit 127
    }

    if (telPipe[1] >= 0)
        ::close(telPipe[1]); // parent keeps only the read end

    Running r;
    r.task = std::move(task);
    r.pid = pid;
    r.started = Clock::now();
    r.lastProgress = r.started;
    r.telFd = telPipe[0];
    running.push_back(std::move(r));
    return true;
}

/**
 * Drain one worker's telemetry pipe without blocking: decode whatever
 * arrived, hand events to the sink, and treat any arriving bytes as
 * liveness for the stall watchdog (a worker that still heartbeats
 * over the pipe is reaching its governor poll point). EOF or a hard
 * read error retires the fd.
 */
bool
ProcessScheduler::drainTelemetry(Running &r)
{
    if (r.telFd < 0)
        return false;

    bool gotBytes = false;
    std::vector<telemetry::Event> events;
    char buf[4096];
    while (true) {
        ssize_t n = faultfs::read(r.telFd, buf, sizeof(buf));
        if (n > 0) {
            gotBytes = true;
            schedStats().telemetryBytes.inc(
                static_cast<uint64_t>(n));
            uint64_t before = r.reader.crcErrors();
            events.clear();
            r.reader.feed(buf, static_cast<size_t>(n), events);
            schedStats().telemetryCrcErrors.inc(
                r.reader.crcErrors() - before);
            schedStats().telemetryFrames.inc(events.size());
            if (telemetryFn) {
                for (const telemetry::Event &e : events)
                    telemetryFn(r.task.id, e);
            }
            continue;
        }
        if (n == 0) {
            // EOF: the worker (and every dup of the write end) is
            // gone. A residual partial frame means it died mid-write.
            if (r.reader.finish() || r.reader.poisoned())
                ++schedStats().telemetryTorn;
            ::close(r.telFd);
            r.telFd = -1;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break; // drained for now; worker still alive
        GLIFS_WARN("telemetry read from worker ", r.pid,
                   " failed: ", std::strerror(errno));
        ::close(r.telFd);
        r.telFd = -1;
        break;
    }
    if (gotBytes)
        r.lastProgress = Clock::now();
    return gotBytes;
}

/**
 * Idle wait between scheduler iterations: park in poll(2) on the live
 * telemetry fds so fresh events wake the loop immediately, falling
 * back to a fixed sleep when nothing is observable. EINTR (or an
 * injected poll fault) just ends the wait early — the main loop
 * re-derives everything from state.
 */
void
ProcessScheduler::idleWait(const std::vector<Running> &running)
{
    std::vector<struct pollfd> fds;
    for (const Running &r : running) {
        if (r.telFd >= 0)
            fds.push_back({r.telFd, POLLIN, 0});
    }
    if (fds.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return;
    }
    faultfs::poll(fds.data(), fds.size(), 10);
}

/**
 * Stall detection: the worker's heartbeat lands on its telemetry
 * pipe, so a pipe that stays silent for the stall timeout means the
 * worker is no longer reaching its governor poll point — wedged, not
 * just slow. Escalate SIGTERM (the worker checkpoints and exits like
 * any governed stop) and, after a grace period, SIGKILL. Both are
 * distinct from the wall-clock backstop: a slow-but-heartbeating
 * worker is never touched by the watchdog, and a worker without an
 * open pipe is watched by the backstop alone.
 */
void
ProcessScheduler::watchdog(Running &r)
{
    if (r.killed)
        return;

    const double elapsed = secondsSince(r.started);
    if (r.task.killAfterSeconds > 0 &&
        elapsed > r.task.killAfterSeconds) {
        ::kill(r.pid, SIGKILL);
        r.killed = true;
        return;
    }

    if (r.task.stallTimeoutSeconds <= 0)
        return;

    if (r.termSent) {
        if (secondsSince(r.termTime) > kTermGraceSeconds) {
            GLIFS_WARN("worker ", r.pid,
                       " ignored the stall SIGTERM; sending SIGKILL");
            ::kill(r.pid, SIGKILL);
            r.killed = true;
            ++schedStats().stallSigkill;
        }
        return;
    }

    if (r.telFd >= 0 &&
        secondsSince(r.lastProgress) > r.task.stallTimeoutSeconds) {
        GLIFS_WARN("worker ", r.pid, " made no progress for ",
                   r.task.stallTimeoutSeconds,
                   "s; sending SIGTERM (checkpoint-then-exit)");
        ::kill(r.pid, SIGTERM);
        r.termSent = true;
        r.termTime = Clock::now();
        ++schedStats().stallSigterm;
    }
}

void
ProcessScheduler::run(const DoneFn &onDone)
{
    std::vector<Running> running;

    while (!pending.empty() || !running.empty()) {
        // Launch queued tasks up to the concurrency cap.
        while (!pending.empty() && running.size() < jobs) {
            ProcTask task = std::move(pending.front());
            pending.pop_front();
            uint64_t id = task.id;
            if (spawn(std::move(task), running)) {
                if (startFn)
                    startFn(id);
            } else {
                ProcResult res;
                res.id = id;
                res.spawnFailed = true;
                onDone(res);
            }
        }

        // Pull telemetry before the reap so the watchdog sees fresh
        // heartbeats, and events for a job precede its done callback.
        for (Running &r : running)
            drainTelemetry(r);

        bool reaped = false;
        for (size_t i = 0; i < running.size();) {
            Running &r = running[i];
            int status = 0;
            pid_t got = faultfs::waitpid(r.pid, &status, WNOHANG);
            if (got == 0) {
                watchdog(r);
                ++i;
                continue;
            }
            if (got < 0) {
                if (errno == EINTR)
                    continue; // retry the same pid
                // ECHILD or another surprise: the child is gone and
                // unreapable. Report a crash instead of asserting —
                // losing one worker must not lose the batch.
                GLIFS_WARN("waitpid(", r.pid, ") failed: ",
                           std::strerror(errno),
                           "; treating worker as crashed");
                ProcResult res;
                res.id = r.task.id;
                res.crashed = true;
                res.stalled = r.termSent;
                res.wallSeconds = secondsSince(r.started);
                if (r.telFd >= 0) {
                    drainTelemetry(r);
                    if (r.telFd >= 0) {
                        ::close(r.telFd);
                        r.telFd = -1;
                    }
                }
                running.erase(running.begin() + i);
                reaped = true;
                onDone(res);
                continue;
            }
            GLIFS_ASSERT(got == r.pid, "waitpid returned ", got);

            ProcResult res;
            res.id = r.task.id;
            res.wallSeconds = secondsSince(r.started);
            if (WIFEXITED(status)) {
                // A worker that caught the stall SIGTERM and exited
                // normally speaks for itself; its exit code stands.
                res.exitCode = WEXITSTATUS(status);
            } else if (r.termSent) {
                // Died on our SIGTERM/SIGKILL stall escalation.
                res.stalled = true;
            } else if (r.killed) {
                res.killedOnTimeout = true;
            } else {
                res.crashed = true;
            }
            // The write end is closed, so everything the worker ever
            // managed to send is sitting in the pipe: drain to EOF so
            // its final stats frame lands before onDone.
            if (r.telFd >= 0) {
                drainTelemetry(r);
                if (r.telFd >= 0) {
                    ::close(r.telFd);
                    r.telFd = -1;
                }
            }
            running.erase(running.begin() + i);
            reaped = true;
            // May submit() retries; the outer loop picks them up.
            onDone(res);
        }

        if (!reaped && (!running.empty() || !pending.empty()))
            idleWait(running);
    }
}

} // namespace glifs::batch
