#include "ift/state_table.hh"

#include "base/stats.hh"
#include "base/trace.hh"

namespace glifs
{

namespace
{

/** Conservative-state-table counters (docs/OBSERVABILITY.md). */
struct TableStats
{
    stats::Scalar lookups{"state_table.lookups",
                          "visits to a PC-changing instruction"};
    stats::Scalar inserts{"state_table.inserts",
                          "first-visit states stored"};
    stats::Scalar subsumed{"state_table.subsumed",
                           "visits covered by a stored state (hits)"};
    stats::Scalar merges{"state_table.merges",
                         "visits merged, widening the stored state"};
    stats::Gauge sizePeak{"state_table.size_peak",
                          "distinct tracked branch states"};
};

TableStats &
tableStats()
{
    static TableStats s;
    return s;
}

} // namespace

StateTable::Visit
StateTable::visit(uint32_t key, SymState &state)
{
    TableStats &st = tableStats();
    ++st.lookups;
    auto it = table.find(key);
    if (it == table.end()) {
        table.emplace(key, state);
        ++st.inserts;
        st.sizePeak.set(static_cast<double>(table.size()));
        return Visit::New;
    }
    if (state.subsumedBy(it->second)) {
        ++subsumeCount;
        ++st.subsumed;
        return Visit::Subsumed;
    }
    it->second.mergeWith(state);
    state = it->second;
    ++mergeCount;
    ++st.merges;
    GLIFS_TRACE_INSTANT_ARGS("state_table", "merge",
                             add("key", static_cast<uint64_t>(key)));
    return Visit::Merged;
}

const SymState *
StateTable::lookup(uint32_t key) const
{
    auto it = table.find(key);
    return it == table.end() ? nullptr : &it->second;
}

void
StateTable::insertRestored(uint32_t key, SymState state)
{
    table.insert_or_assign(key, std::move(state));
    tableStats().sizePeak.set(static_cast<double>(table.size()));
}

void
StateTable::setCounters(size_t merges, size_t subsumptions)
{
    mergeCount = merges;
    subsumeCount = subsumptions;
}

} // namespace glifs
