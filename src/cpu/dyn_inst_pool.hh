/**
 * @file
 * Fixed-size pool and ring buffers for in-flight instructions.
 *
 * The rename-rate of the simulator is gated by how fast DynInst
 * records can be produced and retired. The original pipeline paid one
 * heap allocation per fetched instruction plus a pointer chase per
 * window access (std::deque<std::unique_ptr<DynInst>>); here the
 * records live in one array sized at reset to the most instructions
 * the core can hold in flight, identified by dense 32-bit handles
 * recycled through a LIFO free list. The fetch-to-retire loop performs
 * no allocation at all.
 */

#ifndef RIX_CPU_DYN_INST_POOL_HH
#define RIX_CPU_DYN_INST_POOL_HH

#include <new>
#include <type_traits>
#include <vector>

#include "base/log.hh"
#include "cpu/dyn_inst.hh"

namespace rix
{

/** Index-based reference to a pooled DynInst. */
using InstHandle = u32;
constexpr InstHandle invalidInstHandle = ~u32(0);

// alloc() reuses a slot by constructing over it without running a
// destructor, which is only sound for a trivially destructible record.
static_assert(std::is_trivially_destructible_v<DynInst>);

class DynInstPool
{
  public:
    explicit DynInstPool(size_t capacity) { reset(capacity); }

    /** Fresh (default-initialized) record. The pool never grows: the
     *  core sizes it to its fetch queue plus ROB, so running dry is a
     *  simulator bug and panics. */
    InstHandle
    alloc()
    {
        if (freeList.empty())
            rix_panic("DynInst pool exhausted (%zu records)",
                      records.size());
        const InstHandle h = freeList.back();
        freeList.pop_back();
        // Construct the fresh record directly in its slot: assigning
        // a DynInst{} temporary instead zero-fills a stack copy and
        // then copies all of it into the slot.
        DynInst &di = *::new (&records[h]) DynInst{};
        di.selfHandle = h;
        return h;
    }

    /** Recycle a record. The handle must come from alloc() and must
     *  not be released twice. The slot's sequence number is zeroed so
     *  any stale (handle, seq) reference held by an event queue or
     *  waiter list fails its validation immediately — not just after
     *  the slot is reused. */
    void
    release(InstHandle h)
    {
        records[h].seq = 0;
        freeList.push_back(h);
    }

    DynInst &get(InstHandle h) { return records[h]; }
    const DynInst &get(InstHandle h) const { return records[h]; }

    size_t capacity() const { return records.size(); }
    size_t inUse() const { return records.size() - freeList.size(); }

    /**
     * Resize to @p capacity records, all free, reusing the storage.
     * Handles come out lowest first, so the handle sequence after a
     * reset is a fresh pool's. Any outstanding handles are
     * invalidated (the caller must have dropped its references).
     */
    void
    reset(size_t capacity)
    {
        records.assign(capacity, DynInst{});
        freeList.resize(capacity);
        for (size_t i = 0; i < capacity; ++i)
            freeList[i] = InstHandle(capacity - 1 - i);
    }

  private:
    std::vector<DynInst> records;
    std::vector<InstHandle> freeList;
};

/**
 * Fixed-capacity FIFO of instruction handles with O(1) push/pop at
 * both ends and random access from the front — the shape shared by
 * the fetch queue and the ROB. Backed by one power-of-two array;
 * never allocates after construction.
 */
class HandleRing
{
  public:
    explicit HandleRing(size_t capacity) : cap(capacity)
    {
        size_t n = 1;
        while (n < capacity)
            n <<= 1;
        buf.assign(n, invalidInstHandle);
        mask = u32(n - 1);
    }

    size_t size() const { return count; }
    size_t capacity() const { return cap; }
    bool empty() const { return count == 0; }
    bool full() const { return count >= cap; }

    /** Append @p h; returns its slot (see atSlot). */
    u32
    push_back(InstHandle h)
    {
        const u32 slot = (head + count) & mask;
        buf[slot] = h;
        ++count;
        return slot;
    }

    void
    push_front(InstHandle h)
    {
        head = (head - 1) & mask;
        buf[head] = h;
        ++count;
    }

    InstHandle
    pop_front()
    {
        const InstHandle h = buf[head];
        head = (head + 1) & mask;
        --count;
        return h;
    }

    InstHandle
    pop_back()
    {
        --count;
        return buf[(head + count) & mask];
    }

    InstHandle front() const { return buf[head]; }
    InstHandle back() const { return buf[(head + count - 1) & mask]; }

    /** @p i counted from the front (oldest). */
    InstHandle operator[](size_t i) const
    {
        return buf[(head + i) & mask];
    }

    /**
     * Slots index the backing array: an element keeps its slot while
     * it stays in the ring, and walking slotOf(i) for i = 0..size()-1,
     * wrapping at slots(), visits the elements front to back.
     */
    u32 slots() const { return mask + 1; }
    u32 slotOf(size_t i) const { return u32(head + i) & mask; }
    InstHandle atSlot(u32 slot) const { return buf[slot]; }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

    /** Re-size to @p capacity and empty the ring; the backing array is
     *  reused when the rounded power-of-two size is unchanged. */
    void
    reset(size_t capacity)
    {
        cap = capacity;
        size_t n = 1;
        while (n < capacity)
            n <<= 1;
        if (n != buf.size())
            buf.assign(n, invalidInstHandle);
        mask = u32(n - 1);
        head = 0;
        count = 0;
    }

  private:
    std::vector<InstHandle> buf;
    u32 mask = 0;
    u32 head = 0;
    u32 count = 0;
    size_t cap = 0;
};

} // namespace rix

#endif // RIX_CPU_DYN_INST_POOL_HH
