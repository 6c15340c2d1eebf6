#include "netlist/levelize.hh"

#include "base/logging.hh"

namespace glifs
{

std::vector<EvalStep>
levelize(const Netlist &nl)
{
    // Nodes: [0, nGates) are gates, [nGates, total) the memories' read
    // ports. A node is schedulable when it is a combinational gate or a
    // read port; everything else is a source.
    const uint32_t nGates = static_cast<uint32_t>(nl.numGates());
    const uint32_t total =
        nGates + static_cast<uint32_t>(nl.numMemories());
    constexpr uint32_t kSource = static_cast<uint32_t>(-1);

    // The schedulable node driving each net; kSource for nets driven by
    // a flip-flop, constant or input, and for undriven
    // (environment-set) nets.
    std::vector<uint32_t> producer(nl.numNets(), kSource);
    for (NetId n = 0; n < nl.numNets(); ++n) {
        if (nl.memDriven(n)) {
            producer[n] = nGates + nl.memDriver(n);
        } else if (!nl.undriven(n) &&
                   nl.gate(nl.driverOf(n)).type == GateType::Comb) {
            producer[n] = nl.driverOf(n);
        }
    }

    // Every dependency edge producer -> consumer, one per input (a net
    // read twice is two edges), gates first, then read addresses.
    auto forEachEdge = [&](auto &&edge) {
        for (GateId g = 0; g < nGates; ++g) {
            const Gate &gate = nl.gate(g);
            if (gate.type != GateType::Comb)
                continue;
            const unsigned arity = gateArity(gate.kind);
            for (unsigned i = 0; i < arity; ++i) {
                if (gate.in[i] != kNoNet && producer[gate.in[i]] != kSource)
                    edge(producer[gate.in[i]], g);
            }
        }
        for (MemId m = 0; m < nl.numMemories(); ++m) {
            for (NetId a : nl.memory(m).readAddr) {
                if (a != kNoNet && producer[a] != kSource)
                    edge(producer[a], nGates + m);
            }
        }
    };

    // Consumers of each node as CSR, each node's list in edge order.
    std::vector<uint32_t> offsets(total + 1, 0);
    std::vector<uint32_t> indegree(total, 0);
    forEachEdge([&](uint32_t p, uint32_t c) {
        ++offsets[p + 1];
        ++indegree[c];
    });
    for (uint32_t n = 0; n < total; ++n)
        offsets[n + 1] += offsets[n];
    std::vector<uint32_t> consumers(offsets[total]);
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    forEachEdge([&](uint32_t p, uint32_t c) { consumers[cursor[p]++] = c; });

    // Kahn's algorithm. Every node enters the FIFO once, so the queue
    // is one array and the schedule is its contents.
    std::vector<uint32_t> queue;
    queue.reserve(total);
    size_t schedulable = 0;
    for (uint32_t n = 0; n < total; ++n) {
        if (n < nGates && nl.gate(n).type != GateType::Comb)
            continue;
        ++schedulable;
        if (indegree[n] == 0)
            queue.push_back(n);
    }
    for (size_t head = 0; head < queue.size(); ++head) {
        const uint32_t n = queue[head];
        for (uint32_t e = offsets[n]; e < offsets[n + 1]; ++e) {
            if (--indegree[consumers[e]] == 0)
                queue.push_back(consumers[e]);
        }
    }
    if (queue.size() != schedulable) {
        GLIFS_FATAL("combinational cycle detected: scheduled ",
                    queue.size(), " of ", schedulable, " nodes");
    }

    std::vector<EvalStep> order(queue.size());
    for (size_t i = 0; i < queue.size(); ++i) {
        order[i] = queue[i] < nGates
                       ? EvalStep{EvalStep::Kind::Gate, queue[i]}
                       : EvalStep{EvalStep::Kind::MemRead,
                                  queue[i] - nGates};
    }
    return order;
}

} // namespace glifs
