/**
 * @file
 * Cooperative cancellation for long-running simulation loops.
 *
 * A CancelToken is armed by a job driver (wall-clock deadline, external
 * cancel) and *polled* by SimContext between the 1024-cycle chunks it
 * runs the detailed core in. Nothing is preempted: the loop notices the
 * token at its next poll point and stops cleanly, so a runaway or hung
 * job is reaped without aborting the process or corrupting shared
 * state — the fault-containment discipline behind per-job timeouts in
 * the sweep engine and the `rix serve` daemon. Functional
 * fast-forward (Emulator::run) is never polled: an instruction count
 * bounds it.
 *
 * Zero overhead when off: without a token SimContext adds no poll
 * edges, and the core's own cycle loop never sees a token.
 *
 * Thread-safety: cancel() may be called from any thread (an external
 * watchdog, a signal-handling thread); poll() is called from the
 * simulating thread. The deadline is immutable after arm(), so poll()
 * reads it without synchronization; the fired state is an atomic.
 */

#ifndef RIX_BASE_CANCEL_HH
#define RIX_BASE_CANCEL_HH

#include <atomic>
#include <chrono>

#include "base/types.hh"

namespace rix
{

/** Why a cancellation token fired. */
enum class CancelReason : u32
{
    None = 0,
    /** The armed wall-clock deadline passed (per-job timeout). */
    Deadline,
    /** cancel() was called externally (shutdown, strict-mode abort). */
    External,
};

class CancelToken
{
  public:
    using Clock = std::chrono::steady_clock;

    CancelToken() = default;

    /** Re-arm for a new job: clear the fired state and set a wall-clock
     *  deadline @p timeout_ms from now (0: no deadline). Must not race
     *  poll()/cancel() — arm strictly before handing the token out. */
    void
    arm(u64 timeout_ms)
    {
        fired.store(u32(CancelReason::None), std::memory_order_relaxed);
        hasDeadline = timeout_ms != 0;
        if (hasDeadline)
            deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    }

    /** Fire the token externally; idempotent, any thread. */
    void
    cancel(CancelReason why = CancelReason::External) const
    {
        u32 expect = u32(CancelReason::None);
        fired.compare_exchange_strong(expect, u32(why),
                                      std::memory_order_relaxed);
    }

    /**
     * The simulation loop's check: the fired reason, evaluating the
     * wall-clock deadline as a side effect. Once fired, stays fired
     * until the next arm().
     */
    CancelReason
    poll() const
    {
        const u32 f = fired.load(std::memory_order_relaxed);
        if (f != u32(CancelReason::None))
            return CancelReason(f);
        if (hasDeadline && Clock::now() >= deadline) {
            cancel(CancelReason::Deadline);
            return CancelReason(
                fired.load(std::memory_order_relaxed));
        }
        return CancelReason::None;
    }

    /** The fired reason without deadline evaluation (collectors). */
    CancelReason
    firedReason() const
    {
        return CancelReason(fired.load(std::memory_order_relaxed));
    }

  private:
    // Logically const from the poller's side: poll() on a `const
    // CancelToken *` may still latch the Deadline reason.
    mutable std::atomic<u32> fired{0};
    Clock::time_point deadline{};
    bool hasDeadline = false;
};

} // namespace rix

#endif // RIX_BASE_CANCEL_HH
