/**
 * @file
 * Unit tests for the stats registry (base/stats.hh) and the
 * structured tracer (base/trace.hh): naming contract, registration
 * collisions, histogram binning, JSON rendering round-trip,
 * snapshot/reset, and the tracer ring buffer.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>

#include "base/logging.hh"
#include "base/stats.hh"
#include "base/trace.hh"

namespace glifs
{
namespace
{

using stats::Distribution;
using stats::Formula;
using stats::Gauge;
using stats::Registry;
using stats::Scalar;
using stats::Snapshot;
using stats::SnapshotEntry;

// ---------------------------------------------------------------------
// Naming contract
// ---------------------------------------------------------------------

TEST(StatName, AcceptsDottedLowercase)
{
    EXPECT_TRUE(stats::validStatName("engine.cycles"));
    EXPECT_TRUE(stats::validStatName("state_table.size_peak"));
    EXPECT_TRUE(stats::validStatName("a.b.c"));
    EXPECT_TRUE(stats::validStatName("x0.y1_z2"));
}

TEST(StatName, RejectsMalformed)
{
    EXPECT_FALSE(stats::validStatName(""));
    EXPECT_FALSE(stats::validStatName("nodots"));
    EXPECT_FALSE(stats::validStatName("Engine.cycles"));
    EXPECT_FALSE(stats::validStatName("engine.Cycles"));
    EXPECT_FALSE(stats::validStatName(".leading"));
    EXPECT_FALSE(stats::validStatName("trailing."));
    EXPECT_FALSE(stats::validStatName("two..dots"));
    EXPECT_FALSE(stats::validStatName("has space.x"));
    EXPECT_FALSE(stats::validStatName("engine.cy-cles"));
}

TEST(StatRegistry, MalformedNameIsFatal)
{
    EXPECT_THROW(Scalar("NotValid", "bad"), FatalError);
    EXPECT_THROW(Scalar("nodots", "bad"), FatalError);
}

TEST(StatRegistry, DuplicateNameIsFatal)
{
    Scalar a{"test_stats.dup", "first"};
    EXPECT_THROW(Scalar("test_stats.dup", "second"), FatalError);
}

TEST(StatRegistry, UnregisterFreesTheName)
{
    const size_t before = Registry::instance().size();
    {
        Scalar a{"test_stats.transient", "scoped"};
        EXPECT_EQ(Registry::instance().size(), before + 1);
    }
    EXPECT_EQ(Registry::instance().size(), before);
    // The name is reusable once the stat is gone.
    Scalar again{"test_stats.transient", "scoped again"};
    EXPECT_EQ(Registry::instance().size(), before + 1);
}

// ---------------------------------------------------------------------
// Stat kinds
// ---------------------------------------------------------------------

TEST(StatKinds, ScalarCounts)
{
    Scalar s{"test_stats.scalar", "counter"};
    EXPECT_EQ(s.value(), 0u);
    ++s;
    s += 4;
    s.inc(5);
    EXPECT_EQ(s.value(), 10u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(StatKinds, GaugeTracksPeak)
{
    Gauge g{"test_stats.gauge", "level"};
    g.set(3.0);
    g.set(8.0);
    g.set(2.0);
    EXPECT_DOUBLE_EQ(g.value(), 2.0);
    EXPECT_DOUBLE_EQ(g.peak(), 8.0);
    g.add(5.0);
    EXPECT_DOUBLE_EQ(g.value(), 7.0);
    EXPECT_DOUBLE_EQ(g.peak(), 8.0);
}

TEST(StatKinds, DistributionBinsLinearly)
{
    // [0, 10) in 5 bins of width 2.
    Distribution d{"test_stats.dist", "histogram", 0.0, 10.0, 5};
    d.sample(-1.0);  // underflow
    d.sample(0.0);   // bin 0
    d.sample(1.9);   // bin 0
    d.sample(2.0);   // bin 1
    d.sample(9.9);   // bin 4
    d.sample(10.0);  // overflow (hi is exclusive)
    d.sample(42.0);  // overflow

    EXPECT_EQ(d.count(), 7u);
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 2u);
    ASSERT_EQ(d.bins().size(), 5u);
    EXPECT_EQ(d.bins()[0], 2u);
    EXPECT_EQ(d.bins()[1], 1u);
    EXPECT_EQ(d.bins()[2], 0u);
    EXPECT_EQ(d.bins()[3], 0u);
    EXPECT_EQ(d.bins()[4], 1u);
    EXPECT_DOUBLE_EQ(d.min(), -1.0);
    EXPECT_DOUBLE_EQ(d.max(), 42.0);
    EXPECT_NEAR(d.sum(), 64.8, 1e-9);
}

TEST(StatKinds, FormulaEvaluatesLazily)
{
    Scalar num{"test_stats.fnum", "numerator"};
    Formula f{"test_stats.formula", "derived",
              [&num] { return static_cast<double>(num.value()) / 2; }};
    EXPECT_DOUBLE_EQ(f.value(), 0.0);
    num.inc(10);
    EXPECT_DOUBLE_EQ(f.value(), 5.0);
}

TEST(StatKinds, NonFiniteFormulaSnapshotsAsZero)
{
    // Ratio formulas hit 0/0 before their inputs tick; the snapshot
    // (and thus every report built from it) must stay finite.
    Formula fnan{"test_stats.fnan", "0/0",
                 [] { return 0.0 / 0.0; }};
    Formula finf{"test_stats.finf", "1/0",
                 [] { return 1.0 / 0.0; }};
    Snapshot snap = Registry::instance().snapshot();
    EXPECT_DOUBLE_EQ(snap.value("test_stats.fnan"), 0.0);
    EXPECT_DOUBLE_EQ(snap.value("test_stats.finf"), 0.0);
    const std::string json = snap.json();
    EXPECT_EQ(json.find(": nan"), std::string::npos);
    EXPECT_EQ(json.find(": inf"), std::string::npos);
    EXPECT_EQ(json.find(": -inf"), std::string::npos);
}

// ---------------------------------------------------------------------
// Snapshot / reset
// ---------------------------------------------------------------------

TEST(StatSnapshot, CapturesAndResets)
{
    Scalar s{"test_stats.snap_scalar", "counter"};
    Gauge g{"test_stats.snap_gauge", "level"};
    s.inc(7);
    g.set(3.5);

    Snapshot snap = Registry::instance().snapshot();
    const SnapshotEntry *es = snap.find("test_stats.snap_scalar");
    ASSERT_NE(es, nullptr);
    EXPECT_EQ(es->kind, SnapshotEntry::Kind::Scalar);
    EXPECT_DOUBLE_EQ(es->value, 7.0);
    EXPECT_DOUBLE_EQ(snap.value("test_stats.snap_gauge"), 3.5);
    EXPECT_EQ(snap.find("test_stats.absent"), nullptr);
    EXPECT_DOUBLE_EQ(snap.value("test_stats.absent"), 0.0);

    // Entries are sorted by name (stable output for diffing).
    for (size_t i = 1; i < snap.entries.size(); ++i)
        EXPECT_LT(snap.entries[i - 1].name, snap.entries[i].name);

    Registry::instance().resetAll();
    EXPECT_EQ(s.value(), 0u);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    EXPECT_DOUBLE_EQ(g.peak(), 0.0);
    // The pre-reset snapshot is unaffected.
    EXPECT_DOUBLE_EQ(snap.value("test_stats.snap_scalar"), 7.0);
}

// ---------------------------------------------------------------------
// JSON round-trip (minimal in-test parser: enough JSON to walk the
// nested objects the dumper emits)
// ---------------------------------------------------------------------

/** Tiny recursive-descent JSON reader over the dumper's output. */
class MiniJson
{
  public:
    explicit MiniJson(const std::string &s) : s(s) {}

    /** Value at a dotted path ("engine.cycles"), NaN when absent. */
    double
    number(const std::string &path)
    {
        pos = 0;
        double out = nan("");
        walk(path, "", &out);
        return out;
    }

    /** True if the dotted path names an object or value. */
    bool
    has(const std::string &path)
    {
        pos = 0;
        found = false;
        walk(path, "", nullptr);
        return found;
    }

  private:
    static double nan(const char *) { return __builtin_nan(""); }

    void
    ws()
    {
        while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n' ||
                                  s[pos] == '\t' || s[pos] == '\r'))
            ++pos;
    }

    std::string
    str()
    {
        EXPECT_EQ(s[pos], '"');
        ++pos;
        std::string out;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\')
                ++pos;
            out += s[pos++];
        }
        ++pos;
        return out;
    }

    /** Walk one value; record/emit at the matching path. */
    void
    walk(const std::string &want, const std::string &path, double *out)
    {
        ws();
        if (pos >= s.size())
            return;
        if (s[pos] == '{') {
            ++pos;
            ws();
            if (s[pos] == '}') { ++pos; return; }
            while (true) {
                ws();
                std::string key = str();
                ws();
                EXPECT_EQ(s[pos], ':');
                ++pos;
                std::string sub =
                    path.empty() ? key : path + "." + key;
                if (sub == want)
                    found = true;
                walk(want, sub, out);
                ws();
                if (s[pos] == ',') { ++pos; continue; }
                EXPECT_EQ(s[pos], '}');
                ++pos;
                return;
            }
        } else if (s[pos] == '[') {
            ++pos;
            ws();
            if (s[pos] == ']') { ++pos; return; }
            while (true) {
                walk(want, path, nullptr);
                ws();
                if (s[pos] == ',') { ++pos; continue; }
                EXPECT_EQ(s[pos], ']');
                ++pos;
                return;
            }
        } else if (s[pos] == '"') {
            str();
        } else {
            // number / true / false / null
            size_t start = pos;
            while (pos < s.size() && s[pos] != ',' && s[pos] != '}' &&
                   s[pos] != ']' && s[pos] != '\n')
                ++pos;
            if (out && path == want)
                *out = std::stod(s.substr(start, pos - start));
        }
    }

    const std::string &s;
    size_t pos = 0;
    bool found = false;
};

TEST(StatSnapshot, JsonRoundTrip)
{
    Scalar s{"test_stats_json.counter", "a counter"};
    Gauge g{"test_stats_json.level", "a gauge"};
    Distribution d{"test_stats_json.hist", "a histogram", 0, 8, 4};
    s.inc(42);
    g.set(2.0);
    g.set(1.5);
    d.sample(3.0);
    d.sample(100.0);

    std::string json = Registry::instance().snapshot().json(2);
    MiniJson j(json);
    EXPECT_DOUBLE_EQ(j.number("test_stats_json.counter"), 42.0);
    EXPECT_DOUBLE_EQ(j.number("test_stats_json.level.value"), 1.5);
    EXPECT_DOUBLE_EQ(j.number("test_stats_json.level.peak"), 2.0);
    EXPECT_DOUBLE_EQ(j.number("test_stats_json.hist.count"), 2.0);
    EXPECT_DOUBLE_EQ(j.number("test_stats_json.hist.overflow"), 1.0);
    EXPECT_TRUE(j.has("test_stats_json.hist.bins"));
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

class TracerTest : public ::testing::Test
{
  protected:
    void SetUp() override { trace::Tracer::instance().disable(); }
    void TearDown() override { trace::Tracer::instance().disable(); }
};

TEST_F(TracerTest, DisabledRecordsNothing)
{
    trace::Tracer &tr = trace::Tracer::instance();
    GLIFS_TRACE_INSTANT("test", "nothing");
    { GLIFS_TRACE_SCOPE("test", "nothing_scope"); }
    EXPECT_EQ(tr.size(), 0u);
}

TEST_F(TracerTest, RecordsInstantsAndSpans)
{
    trace::Tracer &tr = trace::Tracer::instance();
    tr.enable(16);
    GLIFS_TRACE_INSTANT("cat_a", "hello");
    GLIFS_TRACE_INSTANT_ARGS("cat_b", "with_args",
                             add("k", 7u).add("s", "v"));
    { GLIFS_TRACE_SCOPE("cat_a", "span"); }
    EXPECT_EQ(tr.size(), 3u);
    EXPECT_EQ(tr.countCategory("cat_a"), 2u);
    EXPECT_EQ(tr.countCategory("cat_b"), 1u);

    auto evs = tr.events();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].ph, 'i');
    EXPECT_EQ(std::string(evs[1].name), "with_args");
    EXPECT_NE(evs[1].args.find("\"k\": 7"), std::string::npos);
    EXPECT_NE(evs[1].args.find("\"s\": \"v\""), std::string::npos);
    EXPECT_EQ(evs[2].ph, 'X');
}

TEST_F(TracerTest, RingDropsOldestWhenFull)
{
    trace::Tracer &tr = trace::Tracer::instance();
    tr.enable(4);
    for (int i = 0; i < 10; ++i)
        tr.instant("ring", i < 6 ? "old" : "new");
    EXPECT_EQ(tr.size(), 4u);
    EXPECT_EQ(tr.dropped(), 6u);
    // Only the newest four remain, oldest-first.
    for (const trace::Event &e : tr.events())
        EXPECT_EQ(std::string(e.name), "new");
}

TEST_F(TracerTest, JsonIsChromeTraceShape)
{
    trace::Tracer &tr = trace::Tracer::instance();
    tr.enable(8);
    tr.instant("shape", "i_event");
    tr.complete("shape", "x_event", 1, 5);
    tr.counter("shape", "c_event", 3.0);
    std::string json = tr.json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
}

TEST_F(TracerTest, EnableResetsTheRing)
{
    trace::Tracer &tr = trace::Tracer::instance();
    tr.enable(4);
    tr.instant("reset", "one");
    tr.enable(4);
    EXPECT_EQ(tr.size(), 0u);
    EXPECT_EQ(tr.dropped(), 0u);
}

} // namespace
} // namespace glifs
