/**
 * @file
 * Structured event tracing for the analysis pipeline, emitting Chrome
 * trace_event JSON that chrome://tracing and Perfetto load directly.
 *
 * The tracer is a process-global ring buffer of fixed-capacity event
 * records. Disabled (the default), every instrumentation site is a
 * single predicted branch on a bool, so tracing can stay compiled into
 * the cycle loop without distorting it; enabling it never allocates in
 * the hot path beyond the per-event argument string. When the ring
 * wraps, the oldest events are dropped (and counted), bounding memory
 * for arbitrarily long runs.
 *
 * Spans are RAII scopes (phase "X" complete events); instants are
 * phase "i". Event names and categories must be string literals (the
 * ring stores the pointers); per-event details go into the Args
 * builder, which renders the Chrome "args" object.
 *
 * Compile-out: defining GLIFS_TRACE_DISABLED turns the macros into
 * no-ops with zero residue in the object code.
 */

#ifndef GLIFS_BASE_TRACE_HH
#define GLIFS_BASE_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace glifs
{
namespace trace
{

/** One ring-buffer record (name/cat point at string literals). */
struct Event
{
    const char *name = "";
    const char *cat = "";
    char ph = 'i';       ///< Chrome phase: 'X' span, 'i' instant, 'C' counter
    uint64_t tsUs = 0;   ///< microseconds since enable()
    uint64_t durUs = 0;  ///< span duration ('X' only)
    uint32_t tid = 1;    ///< Chrome lane; 1 is the main analysis lane
    std::string args;    ///< pre-rendered body of the "args" object
};

/** Builds the body of a Chrome "args" object ("\"k\": v, ..."). */
class Args
{
  public:
    Args &add(const char *key, uint64_t v);
    Args &add(const char *key, int64_t v);
    Args &add(const char *key, unsigned v)
    {
        return add(key, static_cast<uint64_t>(v));
    }
    Args &add(const char *key, int v)
    {
        return add(key, static_cast<int64_t>(v));
    }
    Args &add(const char *key, double v);
    Args &add(const char *key, const char *v);
    Args &add(const char *key, const std::string &v);

    /** Consume the builder (chainable off add()'s lvalue ref). */
    std::string str() { return std::move(body); }

  private:
    void key(const char *k);
    std::string body;
};

/** The process-global ring-buffered tracer. */
class Tracer
{
  public:
    static Tracer &instance();

    /** Start recording into a fresh ring of @p capacity events. */
    void enable(size_t capacity = kDefaultCapacity);
    void disable();
    bool enabled() const { return on; }

    /** Microseconds since enable() (0 when disabled). */
    uint64_t nowUs() const;

    void instant(const char *cat, const char *name,
                 std::string args = {}, uint32_t tid = 1);
    void complete(const char *cat, const char *name, uint64_t tsUs,
                  uint64_t durUs, std::string args = {},
                  uint32_t tid = 1);
    void counter(const char *cat, const char *name, double value);

    /**
     * Label a trace lane: rendered as a Chrome "thread_name" metadata
     * row, so the lane shows up named in chrome://tracing and
     * Perfetto. Relabeling a tid overwrites; labels survive clear()
     * but not enable().
     */
    void threadName(uint32_t tid, const std::string &label);

    size_t size() const { return count; }
    uint64_t dropped() const { return droppedCount; }
    void clear();

    /** Events oldest-first (copies; for tests and text dumps). */
    std::vector<Event> events() const;

    /** Number of recorded events with this category (tests). */
    size_t countCategory(const char *cat) const;

    /** Full Chrome trace_event JSON document. */
    std::string json() const;

    /** Write json() to a file; FatalError on I/O failure. */
    void writeJson(const std::string &path) const;

    /** Human-readable one-line-per-event dump (--debug-trace). */
    std::string text() const;

    static constexpr size_t kDefaultCapacity = 1 << 16;

  private:
    void push(Event &&e);

    bool on = false;
    std::vector<Event> ring;
    std::vector<std::pair<uint32_t, std::string>> laneNames;
    size_t next = 0;         ///< ring slot for the next event
    size_t count = 0;        ///< live events (<= ring.size())
    uint64_t droppedCount = 0;
    std::chrono::steady_clock::time_point t0;
};

/** RAII span: records an 'X' complete event over its lifetime. */
class Scope
{
  public:
    Scope(const char *cat, const char *name)
        : cat(cat), name(name)
    {
        Tracer &t = Tracer::instance();
        if (t.enabled()) {
            startUs = t.nowUs();
            active = true;
        }
    }

    ~Scope()
    {
        if (!active)
            return;
        Tracer &t = Tracer::instance();
        if (t.enabled())
            t.complete(cat, name, startUs, t.nowUs() - startUs);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    const char *cat;
    const char *name;
    uint64_t startUs = 0;
    bool active = false;
};

} // namespace trace
} // namespace glifs

#ifndef GLIFS_TRACE_DISABLED

#define GLIFS_TRACE_CONCAT2(a, b) a##b
#define GLIFS_TRACE_CONCAT(a, b) GLIFS_TRACE_CONCAT2(a, b)

/** Span covering the rest of the enclosing scope. */
#define GLIFS_TRACE_SCOPE(cat, name)                                         \
    ::glifs::trace::Scope GLIFS_TRACE_CONCAT(glifsTraceScope_,               \
                                             __COUNTER__)(cat, name)

/** Instant event without arguments. */
#define GLIFS_TRACE_INSTANT(cat, name)                                       \
    do {                                                                     \
        ::glifs::trace::Tracer &glifsTr =                                    \
            ::glifs::trace::Tracer::instance();                              \
        if (glifsTr.enabled())                                               \
            glifsTr.instant(cat, name);                                      \
    } while (0)

/** Instant event with an Args-builder expression. */
#define GLIFS_TRACE_INSTANT_ARGS(cat, name, argsExpr)                        \
    do {                                                                     \
        ::glifs::trace::Tracer &glifsTr =                                    \
            ::glifs::trace::Tracer::instance();                              \
        if (glifsTr.enabled())                                               \
            glifsTr.instant(cat, name,                                       \
                            ::glifs::trace::Args()                           \
                                .argsExpr.str());                            \
    } while (0)

#else

#define GLIFS_TRACE_SCOPE(cat, name) do {} while (0)
#define GLIFS_TRACE_INSTANT(cat, name) do {} while (0)
#define GLIFS_TRACE_INSTANT_ARGS(cat, name, argsExpr) do {} while (0)

#endif // GLIFS_TRACE_DISABLED

#endif // GLIFS_BASE_TRACE_HH
