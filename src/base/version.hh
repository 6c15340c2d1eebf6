/**
 * @file
 * The tool version string. Folded into the batch result-cache key
 * (docs/BATCH.md) so cached verdicts never outlive the analysis
 * semantics that produced them: bump it whenever a change could alter
 * a verdict for unchanged inputs (engine semantics, checker rules,
 * policy parsing, budget accounting).
 */

#ifndef GLIFS_BASE_VERSION_HH
#define GLIFS_BASE_VERSION_HH

namespace glifs
{

constexpr const char *kGlifsVersion = "glifs-0.5.0";

} // namespace glifs

#endif // GLIFS_BASE_VERSION_HH
