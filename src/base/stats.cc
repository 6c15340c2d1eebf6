#include "base/stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/logging.hh"
#include "base/strutil.hh"

namespace glifs
{
namespace stats
{

std::string
jsonNumber(double v)
{
    if (std::isfinite(v) && v == std::floor(v) &&
        std::abs(v) < 1e15) {
        std::ostringstream oss;
        oss << static_cast<long long>(v);
        return oss.str();
    }
    std::ostringstream oss;
    oss.precision(12);
    oss << v;
    std::string s = oss.str();
    // JSON has no inf/nan literals.
    if (!std::isfinite(v))
        return "0";
    return s;
}

bool
validStatName(const std::string &name)
{
    size_t segments = 0;
    size_t seglen = 0;
    for (char c : name) {
        if (c == '.') {
            if (seglen == 0)
                return false;
            ++segments;
            seglen = 0;
            continue;
        }
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_';
        if (!ok)
            return false;
        ++seglen;
    }
    if (seglen == 0)
        return false;
    ++segments;
    return segments >= 2;
}

StatBase::StatBase(std::string name, std::string desc)
    : statName(std::move(name)), statDesc(std::move(desc))
{
    Registry::instance().add(this);
}

StatBase::~StatBase()
{
    Registry::instance().remove(this);
}

Distribution::Distribution(std::string name, std::string desc,
                           double lo_, double hi_, size_t numBins)
    : StatBase(std::move(name), std::move(desc)), lo(lo_), hi(hi_),
      binCounts(numBins, 0)
{
    GLIFS_ASSERT(hi > lo && numBins > 0,
                 "distribution ", this->name(), ": bad bin geometry");
}

void
Distribution::sample(double x)
{
    if (sampleCount == 0) {
        sampleMin = x;
        sampleMax = x;
    } else {
        sampleMin = std::min(sampleMin, x);
        sampleMax = std::max(sampleMax, x);
    }
    ++sampleCount;
    sampleSum += x;

    if (x < lo) {
        ++underCount;
    } else if (x >= hi) {
        ++overCount;
    } else {
        const double width = (hi - lo) / binCounts.size();
        size_t idx = static_cast<size_t>((x - lo) / width);
        if (idx >= binCounts.size())
            idx = binCounts.size() - 1;  // fp edge at the top bin
        ++binCounts[idx];
    }
}

void
Distribution::reset()
{
    std::fill(binCounts.begin(), binCounts.end(), 0);
    underCount = 0;
    overCount = 0;
    sampleCount = 0;
    sampleSum = 0;
    sampleMin = 0;
    sampleMax = 0;
}

Registry &
Registry::instance()
{
    // Leaked on purpose: stats with static storage duration in other
    // translation units unregister during shutdown, after a
    // function-local static registry could already be gone.
    static Registry *reg = new Registry;
    return *reg;
}

void
Registry::add(StatBase *stat)
{
    if (!validStatName(stat->name())) {
        GLIFS_FATAL("stat name '", stat->name(),
                    "' is not dotted-lowercase ",
                    "([a-z0-9_]+(.[a-z0-9_]+)+)");
    }
    auto [it, inserted] = byName.emplace(stat->name(), stat);
    if (!inserted)
        GLIFS_FATAL("duplicate stat name '", stat->name(), "'");
}

void
Registry::remove(StatBase *stat)
{
    auto it = byName.find(stat->name());
    if (it != byName.end() && it->second == stat)
        byName.erase(it);
}

Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    snap.entries.reserve(byName.size());
    for (const auto &[name, stat] : byName) {
        SnapshotEntry e;
        e.name = name;
        e.desc = stat->desc();
        if (auto *s = dynamic_cast<const Scalar *>(stat)) {
            e.kind = SnapshotEntry::Kind::Scalar;
            e.value = static_cast<double>(s->value());
        } else if (auto *g = dynamic_cast<const Gauge *>(stat)) {
            e.kind = SnapshotEntry::Kind::Gauge;
            e.value = g->value();
            e.peak = g->peak();
        } else if (auto *d =
                       dynamic_cast<const Distribution *>(stat)) {
            e.kind = SnapshotEntry::Kind::Distribution;
            e.count = d->count();
            e.sum = d->sum();
            e.min = d->min();
            e.max = d->max();
            e.value = d->mean();
            e.binLo = d->binLo();
            e.binHi = d->binHi();
            e.underflow = d->underflow();
            e.overflow = d->overflow();
            e.bins = d->bins();
        } else if (auto *f = dynamic_cast<const Formula *>(stat)) {
            e.kind = SnapshotEntry::Kind::Formula;
            // A formula over zero-valued inputs (0/0, x/0) yields
            // nan/inf; snapshot consumers (reports, bench counters)
            // treat entries as plain numbers, so clamp here rather
            // than only at JSON render time.
            const double v = f->value();
            e.value = std::isfinite(v) ? v : 0.0;
        }
        snap.entries.push_back(std::move(e));
    }
    return snap;
}

void
Registry::resetAll()
{
    for (auto &[name, stat] : byName)
        stat->reset();
}

const SnapshotEntry *
Snapshot::find(const std::string &name) const
{
    for (const SnapshotEntry &e : entries) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

double
Snapshot::value(const std::string &name) const
{
    const SnapshotEntry *e = find(name);
    return e ? e->value : 0.0;
}

namespace
{

/** Leaf JSON value of one snapshot entry. */
std::string
entryJson(const SnapshotEntry &e, const std::string &pad)
{
    switch (e.kind) {
      case SnapshotEntry::Kind::Scalar:
      case SnapshotEntry::Kind::Formula:
        return jsonNumber(e.value);
      case SnapshotEntry::Kind::Gauge:
        return "{\"value\": " + jsonNumber(e.value) +
               ", \"peak\": " + jsonNumber(e.peak) + "}";
      case SnapshotEntry::Kind::Distribution: {
        std::ostringstream oss;
        oss << "{\n"
            << pad << "  \"count\": " << e.count << ",\n"
            << pad << "  \"sum\": " << jsonNumber(e.sum) << ",\n"
            << pad << "  \"min\": " << jsonNumber(e.min) << ",\n"
            << pad << "  \"max\": " << jsonNumber(e.max) << ",\n"
            << pad << "  \"mean\": " << jsonNumber(e.value) << ",\n"
            << pad << "  \"bin_lo\": " << jsonNumber(e.binLo) << ",\n"
            << pad << "  \"bin_hi\": " << jsonNumber(e.binHi) << ",\n"
            << pad << "  \"underflow\": " << e.underflow << ",\n"
            << pad << "  \"overflow\": " << e.overflow << ",\n"
            << pad << "  \"bins\": [";
        for (size_t i = 0; i < e.bins.size(); ++i)
            oss << (i ? ", " : "") << e.bins[i];
        oss << "]\n" << pad << "}";
        return oss.str();
      }
    }
    return "0";
}

/** Tree node grouping snapshot entries by dotted-name segment. */
struct Node
{
    const SnapshotEntry *leaf = nullptr;
    std::map<std::string, Node> children;
};

void
writeNode(std::ostringstream &oss, const Node &node, int depth,
          int indent)
{
    const std::string pad(static_cast<size_t>(depth * indent), ' ');
    const std::string inner(static_cast<size_t>((depth + 1) * indent),
                            ' ');
    oss << "{\n";
    size_t i = 0;
    for (const auto &[seg, child] : node.children) {
        oss << inner << "\"" << seg << "\": ";
        if (child.leaf)
            oss << entryJson(*child.leaf, inner);
        else
            writeNode(oss, child, depth + 1, indent);
        if (++i < node.children.size())
            oss << ",";
        oss << "\n";
    }
    oss << pad << "}";
}

} // namespace

std::string
Snapshot::json(int indent) const
{
    Node root;
    for (const SnapshotEntry &e : entries) {
        Node *cur = &root;
        for (const std::string &seg : split(e.name, '.'))
            cur = &cur->children[seg];
        cur->leaf = &e;
    }
    std::ostringstream oss;
    writeNode(oss, root, 0, indent);
    return oss.str();
}

} // namespace stats
} // namespace glifs
