/**
 * @file
 * The escalating-budget retry ladder (docs/BATCH.md).
 *
 * A worker that exits 2 (Unknown/degraded — see docs/ROBUSTNESS.md)
 * ran out of *budget*, not of soundness: re-running the same job with
 * larger budgets can still converge to a definitive Secure/Violations
 * verdict. The ladder multiplies every configured budget by
 * `multiplier^(attempt-1)` up to `maxAttempts` total attempts, and
 * resumes from the job's checkpoint when the previous attempt wrote
 * one, so the work already done is not repeated.
 *
 * Exit codes 0 and 1 are definitive, and exit 3 (usage error) or a
 * crash would only fail identically on retry — none of those are ever
 * retried.
 */

#ifndef GLIFS_BATCH_RETRY_HH
#define GLIFS_BATCH_RETRY_HH

#include "batch/manifest.hh"

namespace glifs::batch
{

class RetryLadder
{
  public:
    explicit RetryLadder(const RetryConfig &cfg) : cfg(cfg) {}

    /**
     * Should a job that finished attempt @p attempt (1-based) with
     * @p exitCode run again? Only exit 2 within the attempt ceiling.
     */
    bool shouldRetry(int exitCode, unsigned attempt) const;

    /**
     * The budgets for attempt @p attempt (1-based): the base budgets
     * scaled by multiplier^(attempt-1). Unset dimensions (0) stay
     * unset — escalation never invents a budget the job didn't have.
     * Scaled values saturate instead of overflowing.
     */
    JobBudgets budgetsFor(const JobBudgets &base,
                          unsigned attempt) const;

    const RetryConfig &config() const { return cfg; }

  private:
    RetryConfig cfg;
};

} // namespace glifs::batch

#endif // GLIFS_BATCH_RETRY_HH
