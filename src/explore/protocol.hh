/**
 * @file
 * The start-state digest perfbench/probe.cc uses to count repeated
 * segment starts (its `ift.segment.repeat_frac` metric).
 *
 * This file exists only for that probe, whose source the benchmark
 * definition (BENCHMARK.json) keeps fixed. Nothing in src/, tools/ or
 * tests/ calls it. It is deleted by the benchmark change that
 * redefines the `rtos_fleet` workload.
 */

#ifndef GLIFS_EXPLORE_PROTOCOL_HH
#define GLIFS_EXPLORE_PROTOCOL_HH

#include <string>

#include "ift/symstate.hh"

namespace glifs::explore
{

/** SHA-256 of a captured state's three planes (32 raw bytes). */
std::string stateDigest(const SymState &s);

} // namespace glifs::explore

#endif // GLIFS_EXPLORE_PROTOCOL_HH
