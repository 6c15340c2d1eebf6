#include "ift/engine.hh"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <tuple>

#include "base/logging.hh"
#include "base/stats.hh"
#include "base/strutil.hh"
#include "base/trace.hh"
#include "ift/checkpoint.hh"
#include "ift/engine_stats.hh"
#include "ift/path_sim.hh"
#include "ift/symstate.hh"
#include "sim/simulator.hh"

namespace glifs
{

bool
EngineResult::degradedUnsound() const
{
    return !degradations.empty();
}

bool
EngineResult::secure() const
{
    if (!completed || starAborted || degradedUnsound())
        return false;
    for (const Violation &v : violations) {
        if (v.kind != ViolationKind::TaintedControlFlow)
            return false;
    }
    return true;
}

Verdict
EngineResult::verdict() const
{
    for (const Violation &v : violations) {
        if (v.kind != ViolationKind::TaintedControlFlow)
            return Verdict::Violations;
    }
    if (completed && !starAborted && !degradedUnsound())
        return Verdict::Secure;
    return Verdict::UnknownDegraded;
}

std::string
EngineResult::summary() const
{
    std::ostringstream oss;
    oss << (completed ? "completed" : "INCOMPLETE");
    if (starAborted)
        oss << " (*-logic aborted)";
    oss << ": " << cyclesSimulated << " cycles, " << pathsExplored
        << " paths, " << branchPoints << " branch points, " << merges
        << " merges, " << subsumptions << " subsumptions, "
        << statesTracked << " tracked branches, "
        << violations.size() << " violation(s), "
        << percent(taintedGateFraction, 1) << " gates ever tainted, "
        << analysisSeconds << "s";
    if (!degradations.empty())
        oss << ", " << degradations.size() << " degradation(s)";
    oss << ", verdict " << verdictName(verdict());
    return oss.str();
}

namespace
{

/** One execution point on the exploration frontier. */
struct FrontierEntry
{
    SymState state;
    uint32_t node = 0; ///< execution-tree node of the path

    /** Continuation of a path past a commit that neither subsumed it
     *  nor left its PC unknown: popped without the per-path
     *  accounting. */
    bool cont = false;
};

/** Everything one run() invocation needs: the run state every
 *  segment is folded into. */
struct RunCtx
{
    PathSim ps; ///< sim, layout, checker and the Algorithm-1 helpers

    ViolationLog log;
    StateTable table;
    ExecTree tree;
    ResourceGovernor gov;
    std::vector<FrontierEntry> stack;
    BitPlane everTainted;

    uint64_t totalCycles = 0;
    uint64_t pathsExplored = 0;
    bool starAborted = false;
    bool budgetHit = false;
    size_t branchPoints = 0;
    /** Tainted and total gates after the *-logic give-up. */
    std::pair<size_t, size_t> starGates;

    std::vector<Degradation> degradations;

    RunCtx(const Soc &s, const Policy &p, const EngineConfig &c,
           const ProgramImage &img)
        : ps(s, p, c, img), gov(c.budgets),
          everTainted(s.netlist().numNets())
    {
    }

    void
    recordDegradation(DegradeLevel lvl, ResourceKind trigger,
                      uint16_t instr_addr, std::string detail)
    {
        Degradation d;
        d.level = lvl;
        d.trigger = trigger;
        d.cycle = totalCycles;
        d.instrAddr = instr_addr;
        d.detail = std::move(detail);
        ++engineStats().escalations;
        GLIFS_TRACE_INSTANT_ARGS(
            "engine", "degrade",
            add("level", degradeLevelName(lvl))
                .add("trigger", resourceKindName(trigger))
                .add("cycle", totalCycles)
                .add("instr", hex16(instr_addr)));
        degradations.push_back(std::move(d));
    }

    void
    endPath(uint32_t node, PathEnd end, uint16_t instr)
    {
        tree.node(node).end = end;
        tree.node(node).endInstr = instr;
    }

    /**
     * Resource governance before every simulated cycle: exhaustion
     * stops with a partial result (and a resumable snapshot of the
     * frontier) -- never a fatal. The degradation record reads the
     * executing instruction out of the simulator.
     */
    CycleAction
    pollBudgets(uint32_t node)
    {
        std::optional<BudgetEvent> ev = gov.poll();
        if (!ev)
            return CycleAction::Continue;
        const uint16_t at = ps.tryBusValue(ps.soc.probes().instrAddrQ);
        recordDegradation(DegradeLevel::PartialStop, ev->kind, at,
                          ev->detail);
        budgetHit = true;
        endPath(node, PathEnd::Budget, at);
        return CycleAction::Stop;
    }

    /** Budget stop mid-path: park the in-flight state back on the
     *  frontier so the snapshot resumes it; it will be popped (and
     *  counted) again. */
    void
    park(SymState state, uint32_t node)
    {
        if (!ps.cfg.checkpointOnStop)
            return;
        stack.push_back({std::move(state), node});
        --pathsExplored;
    }

    /** Algorithm 1: pop, simulate one segment, apply it. */
    void
    explore()
    {
        EngineStats &es = engineStats();
        trace::Tracer &tr = trace::Tracer::instance();
        uint32_t node = 0;
        SegmentHooks hooks;
        hooks.poll = [&] { return pollBudgets(node); };
        hooks.cycleCharged = [&] {
            ++totalCycles;
            ++es.cycles;
            gov.chargeCycles(1);
            ++tree.node(node).cycles;
        };

        while (!stack.empty() && !budgetHit && !starAborted) {
            FrontierEntry e = std::move(stack.back());
            stack.pop_back();
            node = e.node;
            if (!e.cont) {
                ++pathsExplored;
                ++es.paths;
                es.frontierDepth.sample(
                    static_cast<double>(stack.size()));
                es.frontierPeak.set(
                    static_cast<double>(stack.size() + 1));
                gov.noteFrontier(stack.size() + 1);
                if (tr.enabled()) {
                    tr.instant(
                        "engine", "pop",
                        trace::Args()
                            .add("node", static_cast<uint64_t>(node))
                            .add("pc", hex16(ps.statePcBase(e.state)))
                            .add("stack",
                                 static_cast<uint64_t>(stack.size()))
                            .str());
                }
            }
            // Children are pushed concretized; defensive check.
            GLIFS_ASSERT(ps.statePcXBits(e.state).empty(),
                         "execution point with unknown PC");

            const uint64_t c0 = totalCycles;
            apply(node, ps.runSegment(e.state, hooks, c0), c0);
        }
    }

    /**
     * Fold one segment into the run in the order its cycles happened:
     * taint, violations (rebased onto the global clock), POR forks,
     * then the segment end -- budget stop, *-logic give-up,
     * HALT, or the commit's state-table visit followed by PC fan-out
     * or continuation. The simulator still holds the segment's end
     * state.
     */
    void
    apply(uint32_t node, SegmentResult seg, uint64_t c0)
    {
        EngineStats &es = engineStats();
        if (ps.cfg.trackTaintedNets && seg.taintDelta.size() > 0)
            everTainted.orWith(seg.taintDelta);
        for (Violation v : seg.violations) {
            v.firstCycle += c0;
            log.merge(v);
        }
        for (SegmentPorFork &f : seg.porForks) {
            ++branchPoints;
            ++es.branchPoints;
            ++es.porForks;
            GLIFS_TRACE_INSTANT_ARGS(
                "engine", "por_fork",
                add("instr", hex16(f.instr)).add("cycle", c0 + f.cycle));
            stack.push_back(
                {std::move(f.fired), tree.addNode(node, f.startPc)});
        }

        if (seg.stopped) {
            park(std::move(seg.end), node);
            return;
        }
        if (seg.starAborted) {
            starGates = ps.starSaturate(&everTainted);
            starAborted = true;
            endPath(node, PathEnd::StarAborted, seg.endInstr);
            return;
        }
        if (seg.halted) {
            // runSegment already ran the halt memory-invariant scan.
            endPath(node, PathEnd::Halted, seg.endInstr);
            return;
        }

        SymState end = std::move(seg.end);
        const uint16_t instr_addr = seg.endInstr;
        const uint16_t fsm = seg.endFsm;
        const uint32_t table_key =
            (static_cast<uint32_t>(instr_addr) << 4) | fsm;
        // Plain conservative merge: cross-path differences that could
        // leak are all caught by the per-cycle C1-C5 checks (untainted
        // code with a tainted PC, partition escapes, port escapes),
        // mirroring the proof structure of Section 5.4, so the merge
        // itself need not re-taint.
        StateTable::Visit visit = ps.cfg.disableMerging
                                      ? StateTable::Visit::New
                                      : table.visit(table_key, end);
        gov.noteStates(table.size());
        if (trace::Tracer &tr = trace::Tracer::instance(); tr.enabled()) {
            static const char *const visitNames[] = {"new", "subsumed",
                                                     "merged"};
            tr.instant("engine", "visit",
                       trace::Args()
                           .add("instr", hex16(instr_addr))
                           .add("fsm", static_cast<uint64_t>(fsm))
                           .add("result",
                                visitNames[static_cast<int>(visit)])
                           .add("cycle", totalCycles)
                           .str());
        }
        if (visit == StateTable::Visit::Subsumed) {
            endPath(node, PathEnd::Subsumed, instr_addr);
            // The scan reads the data-memory cells out of the
            // simulator, which still holds the segment's end state.
            ps.checker.checkMemoryInvariant(ps.sim, instr_addr,
                                            totalCycles, log);
            return;
        }

        // visit() merged or stored; end is now the conservative state
        // to continue from (a merge may have made its PC unknown).
        const size_t pc_xbits = ps.statePcXBits(end).size();
        if (pc_xbits == 0) {
            // The path runs on from here: a continuation, popped right
            // back off the stack without the per-path accounting.
            stack.push_back({std::move(end), node, true});
            return;
        }
        bool overflow = false;
        std::vector<uint16_t> pcs =
            ps.candidatePcs(instr_addr, end, overflow);
        if (overflow) {
            // Fanout exhaustion: unbounded indirect control flow.
            // Degrade the path to the *-logic abstraction instead of
            // aborting the analysis.
            recordDegradation(DegradeLevel::StarLogicPath,
                              ResourceKind::BranchFanout, instr_addr,
                              detail::concat(
                                  pc_xbits, " unknown PC bits exceed ",
                                  ps.cfg.maxBranchBits,
                                  " (consider masking the target)"));
            ps.starSaturate(&everTainted);
            endPath(node, PathEnd::Degraded, instr_addr);
            return;
        }
        ++branchPoints;
        ++es.branchPoints;
        ++es.pcFanouts;
        es.fanoutWidth.sample(static_cast<double>(pcs.size()));
        GLIFS_TRACE_INSTANT_ARGS(
            "engine", "branch",
            add("instr", hex16(instr_addr))
                .add("successors", static_cast<uint64_t>(pcs.size()))
                .add("cycle", totalCycles));
        for (uint16_t pc : pcs)
            stack.push_back(
                {ps.concretizePc(end, pc), tree.addNode(node, pc)});
        es.frontierPeak.set(static_cast<double>(stack.size()));
        gov.noteFrontier(stack.size());
        endPath(node, PathEnd::Branched, instr_addr);
    }
};

} // namespace

IftEngine::IftEngine(const Soc &s, const Policy &p,
                     const EngineConfig &c)
    : soc(s), policy(p), cfg(c)
{
}

EngineResult
IftEngine::run(const ProgramImage &image, const EngineCheckpoint *resume)
{
    GLIFS_TRACE_SCOPE("engine", "run");
    EngineStats &es = engineStats();
    ++es.runs;
    trace::Tracer &tr = trace::Tracer::instance();
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t traceT0 = tr.enabled() ? tr.nowUs() : 0;
    auto secondsSince = [](std::chrono::steady_clock::time_point t) {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t)
            .count();
    };

    // Fold the cycle budget into the governed budgets (keeping the
    // smaller of the two if both are set).
    EngineConfig effective = cfg;
    if (effective.maxCycles > 0 &&
        (effective.budgets.hardCycles == 0 ||
         effective.maxCycles < effective.budgets.hardCycles)) {
        effective.budgets.hardCycles = effective.maxCycles;
    }

    RunCtx ctx(soc, policy, effective, image);
    EngineResult res;

    // Heartbeat and budget checks share the governor's poll clock
    // (docs/OBSERVABILITY.md): one firing proves the other is live.
    if (effective.progressSeconds > 0 && effective.progressFn) {
        ctx.gov.setHeartbeat(effective.progressSeconds,
                             effective.progressFn);
    }

    // Load the binary; optionally taint the tainted code partitions in
    // program memory (footnote 3). Program ROM is not part of the
    // captured symbolic state, so this also re-establishes it when
    // resuming a checkpoint.
    ctx.ps.loadProgram();
    const uint64_t fingerprint = checkpointFingerprint(
        image, ctx.ps.layout.slots(), soc.netlist().numNets());

    if (resume) {
        if (resume->fingerprint != fingerprint) {
            GLIFS_RECOVERABLE(
                "checkpoint does not match this program image and "
                "netlist (was the firmware or SoC changed?)");
        }
        if (resume->everTainted.size() != soc.netlist().numNets())
            GLIFS_RECOVERABLE("checkpoint: tainted-net plane mismatch");
        const size_t slots = ctx.ps.layout.slots();
        for (const auto &[key, state] : resume->table) {
            if (state.numSlots() != slots)
                GLIFS_RECOVERABLE("checkpoint: state-table slot mismatch");
        }
        for (const auto &[state, node] : resume->frontier) {
            if (state.numSlots() != slots || node >= resume->tree.size())
                GLIFS_RECOVERABLE("checkpoint: frontier entry does not "
                                  "fit the layout or the tree");
        }

        ctx.totalCycles = resume->totalCycles;
        ctx.gov.chargeCycles(resume->totalCycles);
        ctx.pathsExplored = resume->pathsExplored;
        ctx.branchPoints = resume->branchPoints;
        ctx.degradations = resume->degradations;
        for (const Violation &v : resume->violations)
            ctx.log.restore(v);
        ctx.everTainted = resume->everTainted;
        for (const auto &[key, state] : resume->table)
            ctx.table.insertRestored(key, state);
        ctx.table.setCounters(resume->merges, resume->subsumptions);
        ctx.gov.noteStates(ctx.table.size());
        ctx.tree.setNodes(resume->tree);
        for (const auto &[state, node] : resume->frontier)
            ctx.stack.push_back({state, node});
    } else {
        // Algorithm 1 line 5: propagate the (untainted) reset.
        ctx.ps.setInputs(true);
        ctx.ps.sim.step();
        ++ctx.totalCycles;
        ++es.cycles;
        ctx.gov.chargeCycles(1);

        SymState s0(ctx.ps.layout);
        s0.capture(ctx.ps.layout, ctx.ps.sim);
        ctx.stack.push_back({std::move(s0), ctx.tree.addNode(-1, 0)});
    }

    es.setupSeconds.add(secondsSince(t0));
    if (tr.enabled())
        tr.complete("engine", "setup", traceT0, tr.nowUs() - traceT0);
    const auto tExplore = std::chrono::steady_clock::now();
    const uint64_t traceTExplore = tr.enabled() ? tr.nowUs() : 0;

    ctx.explore();

    es.exploreSeconds.add(secondsSince(tExplore));
    if (tr.enabled()) {
        tr.complete("engine", "explore", traceTExplore,
                    tr.nowUs() - traceTExplore);
    }
    const auto tFinalize = std::chrono::steady_clock::now();
    const uint64_t traceTFinalize = tr.enabled() ? tr.nowUs() : 0;

    res.completed = ctx.stack.empty() && !ctx.budgetHit &&
                    !ctx.starAborted;
    res.starAborted = ctx.starAborted;
    res.cyclesSimulated = ctx.totalCycles;
    res.pathsExplored = ctx.pathsExplored;
    res.branchPoints = ctx.branchPoints;
    res.merges = ctx.table.merges();
    res.subsumptions = ctx.table.subsumptions();
    res.statesTracked = ctx.table.size();
    res.violations = ctx.log.list();
    res.degradations = ctx.degradations;

    if (ctx.budgetHit && ctx.ps.cfg.checkpointOnStop) {
        auto ckpt = std::make_shared<EngineCheckpoint>();
        ckpt->fingerprint = fingerprint;
        ckpt->totalCycles = ctx.totalCycles;
        ckpt->pathsExplored = ctx.pathsExplored;
        ckpt->branchPoints = ctx.branchPoints;
        ckpt->merges = ctx.table.merges();
        ckpt->subsumptions = ctx.table.subsumptions();
        // The PartialStop record of this very stop is not carried
        // over: resumed to completion, it cost no coverage.
        for (const Degradation &d : ctx.degradations) {
            if (d.level != DegradeLevel::PartialStop)
                ckpt->degradations.push_back(d);
        }
        ckpt->violations = res.violations;
        ckpt->everTainted = ctx.everTainted;
        ckpt->table.reserve(ctx.table.entries().size());
        for (const auto &[key, state] : ctx.table.entries())
            ckpt->table.emplace_back(key, state);
        ckpt->frontier.reserve(ctx.stack.size());
        for (FrontierEntry &e : ctx.stack)
            ckpt->frontier.emplace_back(std::move(e.state), e.node);
        ckpt->tree = ctx.tree.all();
        res.checkpoint = std::move(ckpt);
    }

    res.tree = std::move(ctx.tree);

    if (cfg.starLogicMode) {
        std::tie(res.taintedGates, res.totalGates) = ctx.starGates;
    } else {
        // Fraction of tracked gates whose output ever carried taint.
        const Netlist &nl = soc.netlist();
        size_t tainted = 0;
        size_t total = 0;
        for (const Gate &g : nl.gates()) {
            if (g.type != GateType::Comb && g.type != GateType::Dff)
                continue;
            ++total;
            if (ctx.everTainted.get(g.out))
                ++tainted;
        }
        res.taintedGates = tainted;
        res.totalGates = total;
    }
    res.taintedGateFraction =
        res.totalGates == 0
            ? 0.0
            : static_cast<double>(res.taintedGates) / res.totalGates;

    es.finalizeSeconds.add(secondsSince(tFinalize));
    if (tr.enabled()) {
        tr.complete("engine", "finalize", traceTFinalize,
                    tr.nowUs() - traceTFinalize);
    }

    const auto t1 = std::chrono::steady_clock::now();
    res.analysisSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    return res;
}

} // namespace glifs
