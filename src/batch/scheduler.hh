/**
 * @file
 * Process-parallel worker scheduler for batch verification
 * (docs/BATCH.md).
 *
 * Workers are separate `glifs_audit` processes (fork/exec), not
 * threads: the engine's stats registry, tracer and governor stop flag
 * are process-global, so process isolation gives full parallelism —
 * and crash isolation — with zero engine re-entrancy work. The
 * scheduler keeps up to `jobs` workers running, reaps them as they
 * finish, and reports each worker's exit status and wall time to a
 * completion callback, which may submit follow-up work (that is how
 * the retry ladder re-queues escalated attempts).
 *
 * Failure hardening (docs/ROBUSTNESS.md, "Crash recovery"):
 *
 *   - fork() transients (EAGAIN/ENOMEM) are retried with capped
 *     exponential backoff; only a persistently unforkable task is
 *     surfaced, as a `spawnFailed` result, never a fatal abort;
 *   - the reap loop is EINTR-safe and treats unexpected waitpid
 *     errors as a crashed worker rather than an invariant violation;
 *   - a per-task stall watchdog watches the worker's telemetry pipe
 *     (where its governor heartbeat lands) and escalates
 *     SIGTERM → SIGKILL when no bytes arrive for the stall timeout.
 *     SIGTERM first, because a live worker snapshots its checkpoint
 *     on SIGTERM — the watchdog recovers wedged workers without
 *     losing their state. This is distinct from `killAfterSeconds`,
 *     the wall-clock SIGKILL backstop.
 *
 * Per-job analysis timeouts are the worker's own `--deadline` budget
 * (the engine degrades gracefully and exits 2); the scheduler's
 * `killAfterSeconds` is only a last-resort backstop for a worker that
 * stops making progress entirely, and such a kill is reported like a
 * degraded run so the ladder can retry it.
 */

#ifndef GLIFS_BATCH_SCHEDULER_HH
#define GLIFS_BATCH_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "base/telemetry.hh"

namespace glifs::batch
{

/** One process to run. */
struct ProcTask
{
    uint64_t id = 0;                 ///< caller's correlation tag
    std::vector<std::string> argv;   ///< argv[0] = executable path
    std::string outputPath;          ///< stdout+stderr log ("" = inherit)
    double killAfterSeconds = 0;     ///< SIGKILL backstop (0 = never)
    /**
     * Give the worker a telemetry pipe: the write end is dup2'd onto
     * fd kTelemetryChildFd in the child (so the caller can bake
     * `--telemetry-fd 3` into argv), the read end is multiplexed by
     * the scheduler and decoded events reach the telemetry sink. If
     * the pipe cannot be created the worker just runs without one —
     * its writer self-disables on the dead fd — under the kill
     * backstop alone: the stall watchdog is off for it.
     */
    bool telemetryPipe = false;
    /**
     * Stall watchdog (0 = off): if no bytes arrive on the telemetry
     * pipe for this many seconds the worker is presumed wedged and
     * SIGTERMed (it can still checkpoint); SIGKILL follows if it
     * ignores the SIGTERM. Needs `telemetryPipe`, and a worker that
     * heartbeats on it faster than this period (glifs_audit
     * --telemetry-fd beats every 0.25 s); what the worker writes to
     * its log does not count.
     */
    double stallTimeoutSeconds = 0;
};

/** What happened to one process. */
struct ProcResult
{
    uint64_t id = 0;
    /** Exit code 0..255; -1 when the process did not exit normally. */
    int exitCode = -1;
    bool killedOnTimeout = false;    ///< we SIGKILLed it (backstop)
    bool stalled = false;            ///< stall watchdog escalated on it
    bool crashed = false;            ///< died on a signal (not ours)
    bool spawnFailed = false;        ///< fork kept failing; never ran
    double wallSeconds = 0;          ///< spawn-to-reap wall time
};

class ProcessScheduler
{
  public:
    using DoneFn = std::function<void(const ProcResult &)>;
    /** Task @p id's worker process was just forked. */
    using StartFn = std::function<void(uint64_t id)>;
    /** Decoded telemetry event from the worker running task @p id. */
    using TelemetryFn =
        std::function<void(uint64_t id, const telemetry::Event &)>;

    /** @param jobs max concurrently running workers (>= 1). */
    explicit ProcessScheduler(unsigned jobs);

    /** Queue a task (legal both before run() and from onDone). */
    void submit(ProcTask task);

    /**
     * Receive decoded telemetry events, in arrival order, from this
     * thread (interleaved with onDone calls). The bytes that carry
     * them are also the stall watchdog's only liveness signal.
     */
    void setTelemetrySink(TelemetryFn fn) { telemetryFn = std::move(fn); }

    /**
     * Hear of each successful fork, from this thread: a submitted task
     * is only queued until then.
     */
    void setStartSink(StartFn fn) { startFn = std::move(fn); }

    /**
     * Run until the queue and all workers drain. @p onDone fires in
     * reap order, once per finished task, from this thread.
     */
    void run(const DoneFn &onDone);

    unsigned concurrency() const { return jobs; }

    /** How long a SIGTERMed staller gets before the SIGKILL. */
    static constexpr double kTermGraceSeconds = 5.0;

    /** The fd the telemetry pipe's write end lands on in the child. */
    static constexpr int kTelemetryChildFd = 3;

  private:
    struct Running;

    /** Fork/exec @p task; false if fork failed past the retry cap. */
    bool spawn(ProcTask task, std::vector<Running> &running);
    void watchdog(Running &r);
    /** Non-blocking read+decode of one worker's pipe; true if bytes
     *  arrived. Closes the fd on EOF or error. */
    bool drainTelemetry(Running &r);
    /** poll(2) on the live telemetry fds instead of a blind sleep. */
    void idleWait(const std::vector<Running> &running);

    unsigned jobs;
    std::deque<ProcTask> pending;
    TelemetryFn telemetryFn;
    StartFn startFn;
};

} // namespace glifs::batch

#endif // GLIFS_BATCH_SCHEDULER_HH
