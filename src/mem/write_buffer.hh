/**
 * @file
 * Retirement-side store write buffer (paper: 16 entries).
 *
 * Committed stores enter the buffer and drain to the data cache one per
 * cycle. Retirement stalls when the buffer is full. Purely a timing
 * structure: the architectural memory write happens at retirement.
 */

#ifndef RIX_MEM_WRITE_BUFFER_HH
#define RIX_MEM_WRITE_BUFFER_HH

#include <deque>

#include "base/types.hh"

namespace rix
{

class WriteBuffer
{
  public:
    explicit WriteBuffer(unsigned capacity) : cap(capacity) {}

    bool full() const { return q.size() >= cap; }
    size_t occupancy() const { return q.size(); }

    /** Enqueue a committed store. Caller must check full() first. */
    void
    push(Addr addr, Cycle now)
    {
        q.push_back({addr, now});
        ++nPushes;
    }

    /**
     * Drain up to one store into the cache this cycle; true if one
     * drained.
     * @param drain invoked with the store's address; performs the
     *              timing access to the data cache.
     */
    template <typename DrainFn>
    bool
    tick(Cycle now, DrainFn &&drain)
    {
        if (q.empty())
            return false;
        if (q.front().enqueueCycle >= now)
            return false; // entered this cycle; drains next cycle at earliest
        drain(q.front().addr);
        q.pop_front();
        ++nDrains;
        return true;
    }

    u64 pushes() const { return nPushes; }
    u64 drains() const { return nDrains; }

    void clear() { q.clear(); }

    /** Reconfigure and return to the power-on state. */
    void
    reset(unsigned capacity)
    {
        cap = capacity;
        q.clear();
        nPushes = nDrains = 0;
    }

  private:
    struct Entry
    {
        Addr addr;
        Cycle enqueueCycle;
    };

    unsigned cap;
    std::deque<Entry> q;
    u64 nPushes = 0, nDrains = 0;
};

} // namespace rix

#endif // RIX_MEM_WRITE_BUFFER_HH
