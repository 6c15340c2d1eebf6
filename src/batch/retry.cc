#include "batch/retry.hh"

#include <cmath>
#include <limits>

namespace glifs::batch
{

namespace
{

uint64_t
scaleCount(uint64_t base, double factor)
{
    if (base == 0)
        return 0;
    double scaled = static_cast<double>(base) * factor;
    double limit =
        static_cast<double>(std::numeric_limits<uint64_t>::max());
    if (scaled >= limit)
        return std::numeric_limits<uint64_t>::max();
    return static_cast<uint64_t>(scaled);
}

} // namespace

bool
RetryLadder::shouldRetry(int exitCode, unsigned attempt) const
{
    return exitCode == 2 && attempt < cfg.maxAttempts;
}

JobBudgets
RetryLadder::budgetsFor(const JobBudgets &base, unsigned attempt) const
{
    double factor =
        std::pow(cfg.multiplier,
                 static_cast<double>(attempt > 0 ? attempt - 1 : 0));
    JobBudgets b;
    b.deadlineSeconds =
        base.deadlineSeconds > 0 ? base.deadlineSeconds * factor : 0;
    b.maxCycles = scaleCount(base.maxCycles, factor);
    b.maxStates = scaleCount(base.maxStates, factor);
    b.maxRssMb = scaleCount(base.maxRssMb, factor);
    return b;
}

} // namespace glifs::batch
