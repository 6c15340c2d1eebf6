/**
 * @file
 * Test-only check of the compiled netlist's plane-word reader index
 * (netlist/compile.hh) against the netlist it was built from.
 */

#ifndef GLIFS_TESTS_READER_INDEX_CHECK_HH
#define GLIFS_TESTS_READER_INDEX_CHECK_HH

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <utility>

#include "netlist/compile.hh"

namespace glifs
{

/**
 * Rebuild, from the gates and memories themselves, the lanes every
 * mark target reads in every plane word -- a comb gate's inputs for
 * its unit; a flip-flop's D/RST/EN and its own Q for its dff word; a
 * read port's address nets for its unit -- and require the index to
 * hold exactly one entry per (word, target) with exactly those lanes:
 * every read lane present, no lane the target does not read. Also
 * require every unit reading a unit's output word to come after it.
 */
inline ::testing::AssertionResult
readerIndexMatchesNetlist(const Netlist &nl, const CompiledNetlist &cn)
{
    const auto numUnits = static_cast<uint32_t>(cn.units.size());
    std::map<std::pair<uint32_t, uint32_t>, uint64_t> expect;
    auto read = [&](uint32_t target, NetId net) {
        const uint32_t slot = cn.slotOfNet[net];
        expect[{slot >> 6, target}] |= 1ULL << (slot & 63);
    };
    std::map<uint32_t, uint32_t> dffWordOfQWord;
    for (uint32_t i = 0; i < cn.dffWords.size(); ++i)
        dffWordOfQWord[cn.dffWords[i].qWord] = i;
    for (const Gate &g : nl.gates()) {
        if (g.type == GateType::Comb) {
            const auto unit = static_cast<uint32_t>(cn.producerUnit[g.out]);
            for (unsigned i = 0; i < gateArity(g.kind); ++i)
                read(unit, g.in[i]);
        } else if (g.type == GateType::Dff) {
            const uint32_t target =
                numUnits + dffWordOfQWord.at(cn.slotOfNet[g.out] >> 6);
            for (unsigned i = 0; i < 3; ++i)
                read(target, g.in[i]);
            read(target, g.out);
        }
    }
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        for (NetId a : nl.memory(m).readAddr) {
            if (a != kNoNet)
                read(cn.unitOfMem[m], a);
        }
    }

    if (cn.readerOffsets.size() != cn.planeWords + 1 ||
        cn.readerOffsets.back() != cn.readers.size()) {
        return ::testing::AssertionFailure() << "reader CSR malformed";
    }
    size_t entries = 0;
    for (uint32_t w = 0; w < cn.planeWords; ++w) {
        uint32_t prev = 0;
        bool first = true;
        for (const WordReader &r : cn.readersOf(w)) {
            ++entries;
            if (!first && r.target <= prev) {
                return ::testing::AssertionFailure()
                       << "word " << w << ": target " << r.target
                       << " duplicated or out of order";
            }
            first = false;
            prev = r.target;
            const auto it = expect.find({w, r.target});
            if (it == expect.end()) {
                return ::testing::AssertionFailure()
                       << "word " << w << ": target " << r.target
                       << " reads nothing there";
            }
            if (r.lanes != it->second) {
                return ::testing::AssertionFailure()
                       << "word " << w << ", target " << r.target
                       << ": lanes " << std::hex << r.lanes
                       << ", reads " << it->second;
            }
            // A unit reading a comb word runs after the word's producer.
            const NetId net = cn.slotNet[(w << 6) + std::countr_zero(r.lanes)];
            const int32_t producer = cn.producerUnit[net];
            if (r.target < numUnits && producer >= 0 &&
                r.target <= static_cast<uint32_t>(producer)) {
                return ::testing::AssertionFailure()
                       << "unit " << r.target << " reads word " << w
                       << " of unit " << producer << " before it runs";
            }
        }
    }
    if (entries != expect.size()) {
        return ::testing::AssertionFailure()
               << entries << " index entries for " << expect.size()
               << " (word, target) reads";
    }
    return ::testing::AssertionSuccess();
}

} // namespace glifs

#endif // GLIFS_TESTS_READER_INDEX_CHECK_HH
