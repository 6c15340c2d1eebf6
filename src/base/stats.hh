/**
 * @file
 * Global statistics registry in the spirit of gem5's stats package,
 * sized for the hot paths of the symbolic engine.
 *
 * Stats are cheap-by-construction: a Scalar increment is one integer
 * add on a plain member, a Gauge set is two stores, a Distribution
 * sample is an add and a bin increment. All bookkeeping (name lookup,
 * grouping, formatting) happens only at snapshot time. Names are
 * hierarchical dotted-lowercase identifiers ("engine.cycles",
 * "state_table.merges"); registration enforces the naming convention
 * and rejects collisions so the name space stays a stable, documented
 * contract (docs/OBSERVABILITY.md).
 *
 * Instrumented modules keep a function-local static struct of stats,
 * so the registry fills in lazily as subsystems are first exercised.
 * Snapshot() captures every registered stat; the snapshot renders as
 * nested JSON (grouped by the dotted name), and resetAll() rewinds
 * every stat for interval measurements.
 */

#ifndef GLIFS_BASE_STATS_HH
#define GLIFS_BASE_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace glifs
{
namespace stats
{

class Registry;

/** Common registration/naming behaviour of every stat. */
class StatBase
{
  public:
    StatBase(std::string name, std::string desc);
    virtual ~StatBase();

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return statName; }
    const std::string &desc() const { return statDesc; }

    virtual void reset() = 0;

  private:
    std::string statName;
    std::string statDesc;
};

/** Monotonic event counter (the workhorse of the hot paths). */
class Scalar : public StatBase
{
  public:
    Scalar(std::string name, std::string desc)
        : StatBase(std::move(name), std::move(desc))
    {}

    void inc(uint64_t n = 1) { val += n; }
    Scalar &operator++() { ++val; return *this; }
    Scalar &operator+=(uint64_t n) { val += n; return *this; }

    uint64_t value() const { return val; }
    void reset() override { val = 0; }

  private:
    uint64_t val = 0;
};

/** Instantaneous level with a tracked peak (frontier size, RSS, ...). */
class Gauge : public StatBase
{
  public:
    Gauge(std::string name, std::string desc)
        : StatBase(std::move(name), std::move(desc))
    {}

    void
    set(double v)
    {
        val = v;
        if (v > peakVal)
            peakVal = v;
    }

    void add(double v) { set(val + v); }

    double value() const { return val; }
    double peak() const { return peakVal; }
    void reset() override { val = 0; peakVal = 0; }

  private:
    double val = 0;
    double peakVal = 0;
};

/**
 * Linear-binned histogram over [lo, hi) with underflow/overflow
 * buckets; min/max/sum/count cover every sample.
 */
class Distribution : public StatBase
{
  public:
    Distribution(std::string name, std::string desc, double lo,
                 double hi, size_t numBins);

    void sample(double x);

    uint64_t count() const { return sampleCount; }
    double sum() const { return sampleSum; }
    double min() const { return sampleMin; }
    double max() const { return sampleMax; }
    double mean() const
    {
        return sampleCount == 0
                   ? 0.0
                   : sampleSum / static_cast<double>(sampleCount);
    }
    double binLo() const { return lo; }
    double binHi() const { return hi; }
    uint64_t underflow() const { return underCount; }
    uint64_t overflow() const { return overCount; }
    const std::vector<uint64_t> &bins() const { return binCounts; }

    void reset() override;

  private:
    double lo;
    double hi;
    std::vector<uint64_t> binCounts;
    uint64_t underCount = 0;
    uint64_t overCount = 0;
    uint64_t sampleCount = 0;
    double sampleSum = 0;
    double sampleMin = 0;
    double sampleMax = 0;
};

/** Named derived value, evaluated lazily at snapshot time. */
class Formula : public StatBase
{
  public:
    Formula(std::string name, std::string desc,
            std::function<double()> fn)
        : StatBase(std::move(name), std::move(desc)),
          fn(std::move(fn))
    {}

    double value() const { return fn ? fn() : 0.0; }
    void reset() override {}

  private:
    std::function<double()> fn;
};

/** One stat captured by Registry::snapshot(). */
struct SnapshotEntry
{
    enum class Kind : uint8_t { Scalar, Gauge, Distribution, Formula };

    std::string name;
    std::string desc;
    Kind kind = Kind::Scalar;

    /** Scalar/Formula value; Gauge current value. */
    double value = 0;
    /** Gauge peak. */
    double peak = 0;

    /** Distribution payload. */
    uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    double binLo = 0;
    double binHi = 0;
    uint64_t underflow = 0;
    uint64_t overflow = 0;
    std::vector<uint64_t> bins;
};

/** Point-in-time capture of the whole registry, sorted by name. */
struct Snapshot
{
    std::vector<SnapshotEntry> entries;

    /** Entry by exact name, or nullptr. */
    const SnapshotEntry *find(const std::string &name) const;

    /** Scalar/gauge/formula value by name (0 if absent). */
    double value(const std::string &name) const;

    /**
     * Render as JSON, nesting objects along the dotted names:
     * {"engine": {"cycles": 123, ...}, ...}. Scalars and formulas
     * render as bare numbers, gauges as {"value","peak"} objects,
     * distributions as full histogram objects.
     */
    std::string json(int indent = 2) const;
};

/**
 * The process-global stat registry. Stats register themselves on
 * construction and unregister on destruction; duplicate or malformed
 * names are a FatalError (caught by tests, fatal for a misbuilt
 * binary).
 */
class Registry
{
  public:
    static Registry &instance();

    void add(StatBase *stat);
    void remove(StatBase *stat);

    size_t size() const { return byName.size(); }
    Snapshot snapshot() const;
    void resetAll();

  private:
    std::map<std::string, StatBase *> byName;
};

/** True iff @p name is dotted-lowercase: [a-z0-9_]+(\.[a-z0-9_]+)+ */
bool validStatName(const std::string &name);

/**
 * A stat value as a JSON number, as snapshots print it: integral values
 * as exact integers, others to 12 significant digits.
 */
std::string jsonNumber(double v);

} // namespace stats
} // namespace glifs

#endif // GLIFS_BASE_STATS_HH
