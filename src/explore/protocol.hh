/**
 * @file
 * Wire formats of the parallel exploration subsystem (DESIGN.md §10).
 *
 * Work travels coordinator -> worker as an ordinary versioned
 * EngineCheckpoint whose frontier holds the shipped execution points
 * (table/tree empty, fingerprint binding the chunk to the program
 * image); results travel back as a CRC-guarded file of
 * (state digest, SegmentResult) records. Both directions reuse the
 * checkpoint's little-endian section encoding (ift/ckpt_io.hh), so a
 * torn or corrupted file on either side surfaces as one clean
 * RecoverableError and costs only that chunk -- the coordinator then
 * re-executes the work inline.
 *
 * Results are keyed by a SHA-256 digest of the *start* state, not by a
 * sequence number: segments are pure functions of their start state
 * (ift/path_sim.hh), so one speculative result answers every frontier
 * entry that ever reaches that exact symbolic state, including the
 * commit-to-commit continuation chain a worker runs ahead of the
 * coordinator.
 */

#ifndef GLIFS_EXPLORE_PROTOCOL_HH
#define GLIFS_EXPLORE_PROTOCOL_HH

#include <string>
#include <vector>

#include "ift/path_sim.hh"
#include "ift/symstate.hh"

namespace glifs::explore
{

/** SHA-256 of a captured state's three planes (32 raw bytes). */
std::string stateDigest(const SymState &s);

/** One worker-produced segment, keyed by its start-state digest. */
struct SegmentRecord
{
    std::string digest; ///< stateDigest() of the segment's start state
    SegmentResult seg;

    /** The worker hit its chain cycle cap before the segment ended;
     *  the partial result is unusable and only reported for
     *  accounting. */
    bool overrun = false;
};

/**
 * Write a work unit: the shipped execution points as the frontier of a
 * versioned EngineCheckpoint (node = position within the chunk).
 * RecoverableError on I/O failure.
 */
void saveWorkUnit(const std::string &path, uint64_t fingerprint,
                  const std::vector<SymState> &states);

/**
 * Load a work unit and validate its fingerprint against the worker's
 * own (image, layout) identity. RecoverableError on any defect.
 */
std::vector<SymState> loadWorkUnit(const std::string &path,
                                   uint64_t fingerprint);

/**
 * Write a result file ("GLFSSEGR" magic, version, body CRC-32, then
 * the records). Goes through faultfs so the crash-recovery sweeps can
 * kill a worker deterministically mid-write. RecoverableError on I/O
 * failure.
 */
void saveSegmentResults(const std::string &path, uint64_t fingerprint,
                        const std::vector<SegmentRecord> &records);

/** Load and validate a result file. RecoverableError on any defect. */
std::vector<SegmentRecord>
loadSegmentResults(const std::string &path, uint64_t fingerprint);

} // namespace glifs::explore

#endif // GLIFS_EXPLORE_PROTOCOL_HH
