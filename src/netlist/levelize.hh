/**
 * @file
 * Topological ordering of the combinational portion of a netlist.
 *
 * Combinational gates and memory read ports are ordered so a single
 * in-order sweep settles all nets for a cycle. Flip-flop outputs,
 * constants and primary inputs are sources. A combinational cycle is a
 * user design error and raises fatal().
 */

#ifndef GLIFS_NETLIST_LEVELIZE_HH
#define GLIFS_NETLIST_LEVELIZE_HH

#include <cstdint>
#include <vector>

#include "netlist/netlist.hh"

namespace glifs
{

/** One step of the per-cycle combinational evaluation schedule. */
struct EvalStep
{
    enum class Kind : uint8_t { Gate, MemRead };
    Kind kind;
    uint32_t index;  ///< GateId or MemId
};

/**
 * Compute the combinational evaluation schedule: Kahn's FIFO order
 * over the gates, then the read ports, each node's consumers visited
 * in netlist order. The compiler's unit assignment follows this exact
 * order (tests pin it on the IoT430).
 * @throws FatalError if the netlist contains a combinational cycle.
 */
std::vector<EvalStep> levelize(const Netlist &nl);

} // namespace glifs

#endif // GLIFS_NETLIST_LEVELIZE_HH
