/**
 * @file
 * The fault model of job execution: per-job failure statuses, the
 * transient/permanent classification, and the retry/timeout policy.
 *
 * Historically every error on a job path was a rix_fatal process
 * abort, so one bad job (divergence, runaway program, malformed
 * request) destroyed an entire multi-hour sweep and made a long-running
 * daemon impossible. This header makes failure *data*: a job finishes
 * with a JobStatus, failures carry a diagnostic, and the driver decides
 * — per the FaultPolicy — whether to retry (transient failures only,
 * bounded exponential backoff), report and continue (graceful
 * degradation), or fail fast (--strict).
 *
 * Status taxonomy (also the wire names of the `rix serve` protocol):
 *
 *   ok          completed within limits
 *   divergence  the DIVA check stopped the core (permanent)
 *   stuck       pipeline watchdog: no retirement progress (permanent)
 *   timeout     wall-clock deadline passed (transient: host-load
 *               dependent, retried per policy)
 *   transient   a spurious, retryable failure (resource exhaustion,
 *               injected); becomes the final status only when the
 *               retry budget is exhausted
 *   crash       an exception escaped the job (permanent)
 *   skipped     cancelled before it ran (strict-mode abort, shutdown)
 *   invalid     rejected before execution (malformed request/config)
 */

#ifndef RIX_BASE_FAULT_HH
#define RIX_BASE_FAULT_HH

#include <stdexcept>
#include <string>

#include "base/types.hh"

namespace rix
{

enum class JobStatus : u8
{
    Ok = 0,
    Divergence,
    Stuck,
    Timeout,
    Transient,
    Crash,
    Skipped,
    Invalid,
};

/** Wire/export name of @p s ("ok", "divergence", ...). */
const char *jobStatusName(JobStatus s);

/** Inverse of jobStatusName; false when @p name is unknown. */
bool jobStatusFromName(const std::string &name, JobStatus *out);

/**
 * Transient failures may succeed on retry (host-load timeouts,
 * resource exhaustion, injected spurious faults); permanent ones are
 * deterministic properties of the job and never retried.
 */
bool jobStatusIsTransient(JobStatus s);

/** A spurious, retryable job failure (the injectable kind). */
class TransientError : public std::runtime_error
{
  public:
    explicit TransientError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/**
 * How a driver treats failing jobs. The environment knobs follow the
 * strict-validation policy (bad values are fatal at startup, never
 * silently defaulted):
 *
 *   RIX_TIMEOUT_MS  per-job wall-clock timeout in milliseconds
 *                   (positive; unset: no timeout)
 *   RIX_RETRIES     retry budget for transient failures (>= 0;
 *                   unset: 2)
 */
struct FaultPolicy
{
    /** Fail fast: the first failing job is fatal for the whole run
     *  (the historical behaviour). False: complete the healthy jobs
     *  and report per-job statuses. */
    bool strict = false;

    /** Per-job wall-clock timeout in ms; 0 disables the watchdog. */
    u64 timeoutMs = 0;

    /** Maximum retries of a transient failure (attempts = retries+1). */
    unsigned retries = 2;

    /** Exponential backoff before retry k: base * 2^(k-1), capped. */
    u64 backoffBaseMs = 10;
    u64 backoffCapMs = 2000;

    /** Backoff before retry @p attempt (1-based), in milliseconds. */
    u64 backoffMs(unsigned attempt) const;

    /** @p strict_dflt with the RIX_TIMEOUT_MS / RIX_RETRIES overrides
     *  applied (fatal on invalid values). */
    static FaultPolicy fromEnv(bool strict_dflt = false);
};

} // namespace rix

#endif // RIX_BASE_FAULT_HH
