/**
 * @file
 * Strict parsing of the numeric RIX_* environment knobs.
 *
 * The historical strtoull-based parsing accepted "0" and arbitrary
 * garbage ("4x", "abc", "") as zero, which silently built degenerate
 * workloads that ran to the retired-instruction cap instead of failing
 * (ISSUE 3's motivating bug). These helpers reject anything that is
 * not a plain positive decimal integer, loudly, naming the variable.
 */

#ifndef RIX_BASE_ENV_HH
#define RIX_BASE_ENV_HH

#include "base/types.hh"

namespace rix
{

/**
 * Parse @p text as a strictly positive decimal count.
 * @param what  name used in the diagnostic (e.g. "RIX_JOBS")
 * Fatal on empty input, non-digits, trailing junk, zero, or overflow.
 */
u64 parsePositiveCount(const char *what, const char *text);

/**
 * The value of the environment variable @p name, which must be a
 * strictly positive decimal integer when set.
 * @return @p dflt when the variable is unset; fatal on invalid values
 *         ("0", "abc", "4x", "").
 */
u64 envPositiveCount(const char *name, u64 dflt);

/**
 * Parse @p text as a non-negative decimal count (zero allowed — e.g.
 * a retry budget of 0 is meaningful). Fatal on empty input,
 * non-digits, trailing junk, or overflow, naming @p what.
 */
u64 parseNonNegativeCount(const char *what, const char *text);

/** envPositiveCount's sibling for knobs where zero is meaningful
 *  (RIX_RETRIES=0: never retry). Fatal on invalid values. */
u64 envNonNegativeCount(const char *name, u64 dflt);

} // namespace rix

#endif // RIX_BASE_ENV_HH
