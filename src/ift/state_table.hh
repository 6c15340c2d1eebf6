/**
 * @file
 * The table of most-conservative observed states, keyed by the program
 * address of each PC-changing instruction (Algorithm 1, lines 20-22 and
 * 30-32).
 */

#ifndef GLIFS_IFT_STATE_TABLE_HH
#define GLIFS_IFT_STATE_TABLE_HH

#include <cstdint>
#include <unordered_map>

#include "ift/symstate.hh"

namespace glifs
{

/** Conservative-state table T of Algorithm 1. */
class StateTable
{
  public:
    /** Outcome of visiting a PC-changing instruction. */
    enum class Visit
    {
        New,        ///< first time at this branch; state stored
        Subsumed,   ///< state already covered: terminate this path
        Merged,     ///< state merged; continue from the merged state
    };

    /**
     * Visit the branch at @p key with the current state. The key is a
     * compound of the PC-changing instruction's address and the FSM
     * micro-state, so mid-instruction visits merge like with like. On
     * Merged, @p state is updated in place to the merged conservative
     * state (the caller continues from it, per Algorithm 1).
     */
    Visit visit(uint32_t key, SymState &state);

    size_t size() const { return table.size(); }
    size_t merges() const { return mergeCount; }
    size_t subsumptions() const { return subsumeCount; }

    /** The stored conservative state for a branch (or nullptr). */
    const SymState *lookup(uint32_t key) const;

    /** All stored states (checkpoint serialization). */
    const std::unordered_map<uint32_t, SymState> &entries() const
    {
        return table;
    }

    /** Checkpoint restore: re-insert a stored state verbatim. */
    void insertRestored(uint32_t key, SymState state);

    /** Checkpoint restore: carry the merge/subsumption counters over. */
    void setCounters(size_t merges, size_t subsumptions);

  private:
    std::unordered_map<uint32_t, SymState> table;
    size_t mergeCount = 0;
    size_t subsumeCount = 0;
};

} // namespace glifs

#endif // GLIFS_IFT_STATE_TABLE_HH
