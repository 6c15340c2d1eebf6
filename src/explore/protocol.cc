#include "explore/protocol.hh"

#include <array>
#include <cstdint>

#include "base/hash.hh"

namespace glifs::explore
{

std::string
stateDigest(const SymState &s)
{
    Sha256 h;
    // Plane sizes first so boundary-shifted plane contents never
    // collide across states of different (hypothetical) layouts.
    const BitPlane *planes[] = {&s.knownPlane(), &s.valuePlane(),
                                &s.taintPlane()};
    for (const BitPlane *p : planes) {
        uint64_t n = p->size();
        h.update(&n, sizeof(n));
        h.update(p->words().data(),
                 p->words().size() * sizeof(uint64_t));
    }
    std::array<uint8_t, 32> d = h.digest();
    return std::string(reinterpret_cast<const char *>(d.data()),
                       d.size());
}

} // namespace glifs::explore
