/**
 * @file
 * Completion events bucketed by cycle.
 *
 * Every execution schedules one event for the cycle its result is
 * written back, and the writeback stage fires the events due in the
 * current cycle. Events land in a ring of per-cycle buckets covering
 * the next `horizon` cycles; the rare event beyond it (a long chain of
 * bus queuing behind a memory miss) waits in an overflow list and
 * moves into the ring once it is within the horizon. Firing sorts
 * only the due bucket, so the events of one cycle fire in age
 * (sequence) order, as a (cycle, seq) min-heap would pop them, at
 * O(1) per scheduled event instead of O(log n).
 */

#ifndef RIX_CPU_COMPLETION_QUEUE_HH
#define RIX_CPU_COMPLETION_QUEUE_HH

#include <vector>

#include "base/types.hh"
#include "cpu/dyn_inst_pool.hh"

namespace rix
{

class CompletionQueue
{
  public:
    /** A validated reference to the completing instruction. */
    struct Event
    {
        Cycle when = 0;
        InstSeqNum seq = 0;
        InstHandle h = invalidInstHandle;

        Event() = default;
        Event(Cycle w, InstSeqNum s, InstHandle handle)
            : when(w), seq(s), h(handle)
        {
        }
    };

    static constexpr unsigned horizon = 256; // ring buckets (power of 2)

    CompletionQueue() : ring(horizon) {}

    /** Drop every event, keeping the buckets' storage. */
    void
    clear()
    {
        for (auto &b : ring)
            b.clear();
        far.clear();
        farMin = ~Cycle(0);
    }

    /** Schedule instruction (@p h, @p seq) to complete at @p when;
     *  @p now is the current cycle and when > now. */
    void
    push(Cycle when, InstSeqNum seq, InstHandle h, Cycle now)
    {
        if (when - now < horizon) {
            ring[when & (horizon - 1)].emplace_back(when, seq, h);
        } else {
            far.emplace_back(when, seq, h);
            if (when < farMin)
                farMin = when;
        }
    }

    /**
     * Remove and return the events due at @p now, oldest first. The
     * caller must have taken every earlier cycle's events (the core
     * calls this once per cycle). The result stays valid until the
     * next call, and events pushed meanwhile do not disturb it.
     */
    const std::vector<Event> &
    take(Cycle now)
    {
        if (farMin < now + horizon)
            admitFar(now);
        firing.clear();
        firing.swap(ring[now & (horizon - 1)]);
        // Insertion sort by age: a cycle completes only a handful of
        // instructions.
        for (size_t i = 1; i < firing.size(); ++i) {
            const Event ev = firing[i];
            size_t j = i;
            for (; j > 0 && firing[j - 1].seq > ev.seq; --j)
                firing[j] = firing[j - 1];
            firing[j] = ev;
        }
        return firing;
    }

  private:
    /** Move the overflow events now within the horizon into the ring. */
    void
    admitFar(Cycle now)
    {
        size_t keep = 0;
        farMin = ~Cycle(0);
        for (const Event &ev : far) {
            if (ev.when < now + horizon) {
                ring[ev.when & (horizon - 1)].push_back(ev);
            } else {
                far[keep++] = ev;
                if (ev.when < farMin)
                    farMin = ev.when;
            }
        }
        far.resize(keep);
    }

    std::vector<std::vector<Event>> ring; // bucket = when mod horizon
    std::vector<Event> far;               // when >= now + horizon
    Cycle farMin = ~Cycle(0);
    std::vector<Event> firing;            // the events take() returned
};

} // namespace rix

#endif // RIX_CPU_COMPLETION_QUEUE_HH
