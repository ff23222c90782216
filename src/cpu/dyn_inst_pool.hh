/**
 * @file
 * Slab allocator and ring buffers for in-flight instructions.
 *
 * The rename-rate of the simulator is gated by how fast DynInst
 * records can be produced and retired. The original pipeline paid one
 * heap allocation per fetched instruction plus a pointer chase per
 * window access (std::deque<std::unique_ptr<DynInst>>); here the
 * records live in fixed slabs that are never freed while the core is
 * alive, identified by dense 32-bit handles recycled through a free
 * list. After the first few thousand instructions the simulator's
 * fetch-to-retire loop performs no allocation at all.
 *
 * Slabs (not one growable array) keep every DynInst* stable: growing
 * the pool appends a slab instead of reallocating, so raw pointers
 * held across a grow (e.g. the instruction being renamed) stay valid.
 */

#ifndef RIX_CPU_DYN_INST_POOL_HH
#define RIX_CPU_DYN_INST_POOL_HH

#include <memory>
#include <new>
#include <type_traits>
#include <vector>

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
    static constexpr unsigned slabShift = 8;
    static constexpr unsigned slabInsts = 1u << slabShift; // 256/slab

    /** @p reserve in-flight instructions are pre-materialized. */
    explicit DynInstPool(size_t reserve = 0) { reset(reserve); }

    /** Fresh (default-initialized) record. Never fails: the pool grows
     *  by whole slabs when the free list runs dry. */
    InstHandle
    alloc()
    {
        if (freeList.empty())
            activateSlab();
        const InstHandle h = freeList.back();
        freeList.pop_back();
        // Construct the fresh record directly in its slot: assigning
        // a DynInst{} temporary instead zero-fills a stack copy and
        // then copies all of it into the slot.
        DynInst &di = *::new (&get(h)) DynInst{};
        di.selfHandle = h;
        ++inUse_;
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
        get(h).seq = 0;
        freeList.push_back(h);
        --inUse_;
    }

    DynInst &
    get(InstHandle h)
    {
        return slabs[h >> slabShift][h & (slabInsts - 1)];
    }

    const DynInst &
    get(InstHandle h) const
    {
        return slabs[h >> slabShift][h & (slabInsts - 1)];
    }

    size_t capacity() const { return slabs.size() * slabInsts; }
    size_t inUse() const { return inUse_; }

    /**
     * Return to the freshly-constructed state while keeping every
     * already-materialized slab's storage. Only the slabs a fresh
     * pool of this reserve would have materialized are put back on
     * the free list; retained extra slabs are re-activated lazily in
     * the same order alloc() would have created them — so the handle
     * sequence handed out after a reset is identical to a brand-new
     * pool's in every case, and reusing a context cannot perturb
     * handle assignment. Any outstanding handles are invalidated (the
     * caller must have dropped its references).
     */
    void
    reset(size_t reserve = 0)
    {
        // Zero every retained slot's seq so stale (handle, seq) pairs
        // held anywhere fail validation immediately.
        for (auto &slab : slabs)
            for (unsigned i = 0; i < slabInsts; ++i)
                slab[i].seq = 0;
        freeList.clear();
        activeSlabs = 0;
        while (activeSlabs * slabInsts < reserve)
            activateSlab();
        inUse_ = 0;
    }

  private:
    /** Put the next slab's handles on the free list, materializing it
     *  only when no retained (post-reset) slab is available. */
    void
    activateSlab()
    {
        if (activeSlabs == slabs.size())
            slabs.push_back(std::make_unique<DynInst[]>(slabInsts));
        const InstHandle base = InstHandle(activeSlabs * slabInsts);
        // Stack the slab's handles so the lowest index comes out
        // first (purely cosmetic: keeps handles dense in traces).
        for (unsigned i = slabInsts; i-- > 0;)
            freeList.push_back(base + i);
        ++activeSlabs;
    }

    std::vector<std::unique_ptr<DynInst[]>> slabs;
    std::vector<InstHandle> freeList;
    size_t activeSlabs = 0;
    size_t inUse_ = 0;
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
