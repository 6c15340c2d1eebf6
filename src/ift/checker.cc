#include "ift/checker.hh"

#include <sstream>

#include "base/bitutil.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "base/strutil.hh"
#include "base/trace.hh"
#include "soc/address_map.hh"

namespace glifs
{

namespace
{

/** Policy-checking counters (docs/OBSERVABILITY.md). */
struct CheckerStats
{
    stats::Scalar cycleChecks{"checker.cycle_checks",
                              "per-cycle C1-C5 checks"};
    stats::Scalar memoryScans{"checker.memory_scans",
                              "path-end memory invariant scans"};
    stats::Scalar violations{"checker.violations",
                             "violation observations recorded"};
};

CheckerStats &
checkerStats()
{
    static CheckerStats s;
    return s;
}

} // namespace

const char *
violationKindName(ViolationKind kind)
{
    switch (kind) {
      case ViolationKind::TaintedControlFlow:
        return "C1-tainted-control-flow";
      case ViolationKind::UntaintedCodeTaintedPc:
        return "C1-untainted-code-tainted-pc";
      case ViolationKind::StoreUntaintedPartition:
        return "C2-store-untainted-partition";
      case ViolationKind::LoadTaintedData:
        return "C3-load-tainted-data";
      case ViolationKind::UntaintedReadTaintedPort:
        return "C4-untainted-read-tainted-port";
      case ViolationKind::TaintedWriteTrustedPort:
        return "C5-tainted-write-trusted-port";
      case ViolationKind::TrustedOutputTainted:
        return "trusted-output-tainted";
      case ViolationKind::WatchdogTainted:
        return "watchdog-tainted";
    }
    return "?";
}

bool
violationIsError(ViolationKind kind)
{
    switch (kind) {
      case ViolationKind::UntaintedCodeTaintedPc:
      case ViolationKind::UntaintedReadTaintedPort:
      case ViolationKind::TaintedWriteTrustedPort:
      case ViolationKind::TrustedOutputTainted:
        return true;
      default:
        return false;
    }
}

std::string
Violation::str() const
{
    std::ostringstream oss;
    oss << (violationIsError(kind) ? "error" : "warning") << " "
        << violationKindName(kind) << " @ " << hex16(instrAddr)
        << " (first cycle " << firstCycle << ", seen " << count << "x)";
    if (!detail.empty())
        oss << ": " << detail;
    return oss.str();
}

void
ViolationLog::record(ViolationKind kind, uint16_t instr_addr,
                     uint64_t cycle, const std::string &detail,
                     bool maskable)
{
    ++checkerStats().violations;
    GLIFS_TRACE_INSTANT_ARGS("checker", "violation",
                             add("kind", violationKindName(kind))
                                 .add("instr", hex16(instr_addr))
                                 .add("cycle", cycle));
    auto key = std::make_pair(static_cast<uint8_t>(kind), instr_addr);
    auto it = entries.find(key);
    if (it == entries.end()) {
        Violation v;
        v.kind = kind;
        v.instrAddr = instr_addr;
        v.firstCycle = cycle;
        v.count = 1;
        v.maskable = maskable;
        v.detail = detail;
        entries.emplace(key, std::move(v));
    } else {
        ++it->second.count;
        it->second.maskable = it->second.maskable || maskable;
    }
}

void
ViolationLog::restore(const Violation &v)
{
    entries.insert_or_assign(
        std::make_pair(static_cast<uint8_t>(v.kind), v.instrAddr), v);
}

void
ViolationLog::merge(const Violation &v)
{
    auto key = std::make_pair(static_cast<uint8_t>(v.kind), v.instrAddr);
    auto it = entries.find(key);
    if (it == entries.end()) {
        entries.emplace(key, v);
        return;
    }
    it->second.count += v.count;
    it->second.maskable |= v.maskable;
}

std::vector<Violation>
ViolationLog::list() const
{
    std::vector<Violation> out;
    out.reserve(entries.size());
    for (const auto &[key, v] : entries)
        out.push_back(v);
    return out;
}

namespace
{

/** A set of possible 16-bit addresses: fixed base plus free X bits. */
struct AddrSet
{
    uint16_t base = 0;
    uint16_t xmask = 0;
    bool tainted = false;

    bool
    canEqual(uint16_t c) const
    {
        return (base & ~xmask) == (c & ~xmask);
    }
};

AddrSet
addrSetFromBus(const Simulator &sim, const Bus &bus)
{
    AddrSet s;
    for (size_t i = 0; i < bus.size(); ++i) {
        Signal sig = sim.netValue(bus[i]);
        s.tainted = s.tainted || sig.taint;
        if (!sig.known())
            s.xmask |= static_cast<uint16_t>(1u << i);
        else if (sig.asBool())
            s.base |= static_cast<uint16_t>(1u << i);
    }
    return s;
}

/**
 * Can the set intersect [lo, hi]? Exact when the number of free bits
 * is small; conservatively true otherwise.
 */
bool
intersectsRange(const AddrSet &s, uint16_t lo, uint16_t hi)
{
    unsigned free_bits = popcount64(s.xmask);
    if (free_bits <= 12) {
        // Enumerate the subsets of xmask.
        uint16_t sub = 0;
        while (true) {
            uint16_t a = s.base | sub;
            if (a >= lo && a <= hi)
                return true;
            if (sub == s.xmask)
                break;
            sub = static_cast<uint16_t>((sub - s.xmask) & s.xmask);
        }
        return false;
    }
    // Conservative interval overlap.
    uint16_t min = s.base & static_cast<uint16_t>(~s.xmask);
    uint16_t max = s.base | s.xmask;
    return !(max < lo || min > hi);
}

/** Call fn(addr) for every set member inside [lo, hi] (bounded). */
template <typename Fn>
void
forEachInRange(const AddrSet &s, uint16_t lo, uint16_t hi, Fn fn)
{
    unsigned free_bits = popcount64(s.xmask);
    if (free_bits > 12) {
        for (uint32_t a = lo; a <= hi; ++a) {
            if (s.canEqual(static_cast<uint16_t>(a)))
                fn(static_cast<uint16_t>(a));
        }
        return;
    }
    uint16_t sub = 0;
    while (true) {
        uint16_t a = s.base | sub;
        if (a >= lo && a <= hi)
            fn(a);
        if (sub == s.xmask)
            break;
        sub = static_cast<uint16_t>((sub - s.xmask) & s.xmask);
    }
}

bool
busTainted(const Simulator &sim, const Bus &bus)
{
    for (NetId n : bus) {
        if (sim.netValue(n).taint)
            return true;
    }
    return false;
}

bool
netTainted(const Simulator &sim, NetId n)
{
    return sim.netValue(n).taint;
}

/** Concrete value of a bus; panics on X bits. */
uint16_t
busValueConcrete(const Simulator &sim, const Bus &bus, const char *what)
{
    uint16_t v = 0;
    for (size_t i = 0; i < bus.size(); ++i) {
        Signal s = sim.netValue(bus[i]);
        GLIFS_ASSERT(s.known(), what, " has unknown bit ", i);
        if (s.asBool())
            v |= static_cast<uint16_t>(1u << i);
    }
    return v;
}

const uint16_t kPortOutAddr[4] = {iot430::kP1Out, iot430::kP2Out,
                                  iot430::kP3Out, iot430::kP4Out};
const uint16_t kPortInAddr[4] = {iot430::kP1In, iot430::kP2In,
                                 iot430::kP3In, iot430::kP4In};

} // namespace

FlowChecker::FlowChecker(const Soc &s, const Policy &p)
    : soc(s), policy(p)
{
}

bool
FlowChecker::pcTainted(const Simulator &sim) const
{
    const SocProbes &prb = soc.probes();
    return busTainted(sim, prb.pcQ) || busTainted(sim, prb.stateQ);
}

void
FlowChecker::checkWrite(const Simulator &sim, uint16_t instr_addr,
                        uint64_t cycle, bool code_tainted,
                        ViolationLog &log) const
{
    const SocProbes &prb = soc.probes();
    Signal wstate = sim.netValue(prb.memWriteState);
    // No write can happen this cycle. (A tainted-but-0 write state is
    // covered by the engine exploring the paths where a write does
    // happen.)
    if (wstate.known() && !wstate.asBool())
        return;

    AddrSet addr = addrSetFromBus(sim, prb.dmemWriteAddr);
    const bool data_taint = busTainted(sim, prb.dmemWriteData);
    const bool we_taint = wstate.taint ||
                          netTainted(sim, prb.ramWriteEn);
    const bool any_taint =
        code_tainted || data_taint || addr.tainted || we_taint;

    for (const MemPartition &m : policy.mem) {
        if (m.tainted)
            continue;
        if (any_taint && intersectsRange(addr, m.lo, m.hi)) {
            log.record(ViolationKind::StoreUntaintedPartition, instr_addr,
                       cycle,
                       detail::concat("store may taint untainted "
                                      "partition '", m.name, "'"),
                       true);
        }
    }

    for (unsigned p = 0; p < 4; ++p) {
        if (!policy.trustedOutPort[p])
            continue;
        if (any_taint && addr.canEqual(kPortOutAddr[p])) {
            log.record(ViolationKind::TaintedWriteTrustedPort, instr_addr,
                       cycle,
                       detail::concat("tainted store may reach trusted "
                                      "P", p + 1, "OUT"),
                       true);
        }
    }

    if ((code_tainted || addr.tainted || we_taint) &&
        addr.canEqual(iot430::kWdtCtl)) {
        log.record(ViolationKind::WatchdogTainted, instr_addr, cycle,
                   "tainted store may reach WDTCTL", true);
    }
}

void
FlowChecker::checkRead(const Simulator &sim, uint16_t instr_addr,
                       uint64_t cycle, bool code_tainted,
                       ViolationLog &log) const
{
    // Only untainted code is constrained in what it may read
    // (conditions 3 and 4).
    if (code_tainted)
        return;

    const SocProbes &prb = soc.probes();
    uint16_t state = busValueConcrete(sim, prb.stateQ, "fsm state");
    const bool reading = state == static_cast<uint16_t>(
                             CoreState::ReadMem) ||
                         state == static_cast<uint16_t>(CoreState::Pop) ||
                         state == static_cast<uint16_t>(CoreState::Ret);
    if (!reading)
        return;

    AddrSet addr = addrSetFromBus(sim, prb.dmemReadAddr);

    for (const MemPartition &m : policy.mem) {
        if (!m.tainted)
            continue;
        if (intersectsRange(addr, m.lo, m.hi)) {
            log.record(ViolationKind::LoadTaintedData, instr_addr, cycle,
                       detail::concat("untainted code loads from "
                                      "tainted partition '", m.name,
                                      "'"));
        }
    }

    // Tainted cells anywhere in the reachable read set.
    const BitPlane &taint = sim.memCells(prb.dataMem).taint();
    const unsigned width = soc.netlist().memory(prb.dataMem).width;
    forEachInRange(addr, iot430::kRamBase, iot430::kRamEnd,
                   [&](uint16_t a) {
                       const size_t w = a - iot430::kRamBase;
                       if (taint.getBits(w * width, width) != 0) {
                           log.record(ViolationKind::LoadTaintedData,
                                      instr_addr, cycle,
                                      detail::concat(
                                          "untainted code loads tainted "
                                          "cell ", hex16(a)));
                       }
                   });

    for (unsigned p = 0; p < 4; ++p) {
        if (!policy.taintedInPort[p])
            continue;
        if (addr.canEqual(kPortInAddr[p])) {
            log.record(ViolationKind::UntaintedReadTaintedPort,
                       instr_addr, cycle,
                       detail::concat("untainted code reads tainted P",
                                      p + 1, "IN"));
        }
    }
}

void
FlowChecker::checkCycle(const Simulator &sim, uint16_t instr_addr,
                        uint64_t cycle, ViolationLog &log) const
{
    ++checkerStats().cycleChecks;
    const SocProbes &prb = soc.probes();
    const bool code_tainted = policy.codeTainted(instr_addr);

    if (pcTainted(sim)) {
        log.record(code_tainted
                       ? ViolationKind::TaintedControlFlow
                       : ViolationKind::UntaintedCodeTaintedPc,
                   instr_addr, cycle,
                   code_tainted ? "PC tainted in tainted task"
                                : "PC tainted while untainted code runs");
    }

    checkWrite(sim, instr_addr, cycle, code_tainted, log);
    checkRead(sim, instr_addr, cycle, code_tainted, log);

    for (unsigned p = 0; p < 4; ++p) {
        if (policy.trustedOutPort[p] &&
            busTainted(sim, prb.portOut[p])) {
            log.record(ViolationKind::TrustedOutputTainted, instr_addr,
                       cycle,
                       detail::concat("trusted P", p + 1,
                                      "OUT carries taint"));
        }
    }

    if (netTainted(sim, prb.wdtWriteEn)) {
        log.record(ViolationKind::WatchdogTainted, instr_addr, cycle,
                   "WDTCTL write-enable carries taint");
    }
}

void
FlowChecker::checkMemoryInvariant(const Simulator &sim,
                                  uint16_t instr_addr, uint64_t cycle,
                                  ViolationLog &log) const
{
    ++checkerStats().memoryScans;
    const SocProbes &prb = soc.probes();
    const BitPlane &taint = sim.memCells(prb.dataMem).taint();
    const unsigned width = soc.netlist().memory(prb.dataMem).width;

    for (const MemPartition &m : policy.mem) {
        if (m.tainted)
            continue;
        for (uint32_t a = m.lo; a <= m.hi; ++a) {
            if (classifyAddr(static_cast<uint16_t>(a)) != AddrRegion::Ram)
                continue;
            const size_t w = ramIndex(static_cast<uint16_t>(a));
            if (taint.getBits(w * width, width) != 0) {
                log.record(ViolationKind::StoreUntaintedPartition,
                           instr_addr, cycle,
                           detail::concat("untainted partition '", m.name,
                                          "' cell ", hex16(a),
                                          " is tainted"));
            }
        }
    }
}

} // namespace glifs
