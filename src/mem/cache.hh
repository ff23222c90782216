/**
 * @file
 * Set-associative, non-blocking, write-back cache timing model.
 *
 * The model is latency-compositional: an access returns the cycle at
 * which its data is available. Misses allocate MSHRs (merging with an
 * outstanding miss to the same line); when all MSHRs are busy the
 * access waits for the earliest one to free. Fills insert the line
 * eagerly with a `fillDone` timestamp, so hits under outstanding fills
 * are delayed to the fill's completion — non-blocking, hit-under-miss
 * behaviour with up to `numMshrs` outstanding misses.
 */

#ifndef RIX_MEM_CACHE_HH
#define RIX_MEM_CACHE_HH

#include <functional>
#include <string>
#include <vector>

#include "base/types.hh"

namespace rix
{

struct CacheParams
{
    std::string name = "cache";
    u32 sizeBytes = 32 * 1024;
    u32 lineBytes = 32;
    u32 assoc = 2;
    Cycle hitLatency = 2;
    u32 numMshrs = 16;

    u32 numSets() const { return sizeBytes / (lineBytes * assoc); }
};

struct CacheAccessResult
{
    Cycle ready = 0;  // data-available cycle
    bool hit = false; // tag hit (even if the fill is still in flight)
};

class Cache
{
  public:
    /**
     * Miss handler: given the missing line address and the cycle the
     * miss is issued, returns the cycle the fill data arrives.
     */
    using MissHandler = std::function<Cycle(Addr line_addr, Cycle now)>;

    /** Writeback handler: a dirty victim leaves for the next level. */
    using WritebackHandler = std::function<void(Addr line_addr, Cycle now)>;

    explicit Cache(const CacheParams &params);

    /**
     * Reconfigure to @p params and return to the power-on state
     * (all lines invalid, counters zero). Reuses the line and MSHR
     * arrays when the geometry is unchanged.
     */
    void reset(const CacheParams &params);

    /**
     * Perform one access.
     * @param addr      byte address (the whole access must fit the line)
     * @param is_write  stores mark the line dirty (write-allocate)
     * @param now       issue cycle
     * @param on_miss   charged once per allocated (non-merged) miss
     * @param on_wb     invoked for dirty evictions (may be null)
     */
    CacheAccessResult access(Addr addr, bool is_write, Cycle now,
                             const MissHandler &on_miss,
                             const WritebackHandler &on_wb = nullptr);

    /**
     * Hit-only fast path: on a tag hit, applies the hit side effects
     * (LRU, dirty marking, stats, hit-under-fill delay) and returns
     * true with *ready set; on a miss returns false with no state
     * change. access() delegates its hit path here; calling it
     * directly lets callers skip constructing the miss/writeback
     * closures on the overwhelmingly common hit path.
     */
    bool
    tryHit(Addr addr, bool is_write, Cycle now, Cycle *ready)
    {
        const Addr la = lineAddrOf(addr);
        Line *base = &lines[size_t(setOf(la)) * p.assoc];
        for (u32 w = 0; w < p.assoc; ++w) {
            Line &line = base[w];
            if (line.valid && line.tag == tagOf(la)) {
                line.lruStamp = ++lruClock;
                if (is_write)
                    line.dirty = true;
                ++nHits;
                const Cycle start =
                    now > line.fillDone ? now : line.fillDone;
                *ready = start + p.hitLatency;
                return true;
            }
        }
        return false;
    }

    /**
     * The side effects of @p k more read hits on @p addr, which must
     * hit, with the fill done: the same LRU stamp and counters as @p k
     * tryHit calls, in O(1). Core::run skips idle cycles with it.
     */
    void repeatHit(Addr addr, u64 k);

    /** True if @p addr currently hits (no state change; tests). */
    bool probe(Addr addr) const;

    void invalidateAll();

    const CacheParams &params() const { return p; }
    u64 hits() const { return nHits; }
    u64 misses() const { return nMisses; }
    u64 mshrMerges() const { return nMerges; }
    u64 writebacks() const { return nWritebacks; }
    u64 mshrStallCycles() const { return nMshrStallCycles; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        u64 tag = 0;
        Cycle fillDone = 0;
        u64 lruStamp = 0;
    };

    struct Mshr
    {
        Addr lineAddr = 0;
        Cycle ready = 0;
        bool busy = false;
    };

    Addr lineAddrOf(Addr a) const { return a / p.lineBytes; }
    u32 setOf(Addr line_addr) const { return u32(line_addr) & (sets - 1); }
    u64 tagOf(Addr line_addr) const { return line_addr >> setShift; }

    CacheParams p;
    u32 sets;
    u32 setShift;
    std::vector<Line> lines;
    std::vector<Mshr> mshrs;
    u64 lruClock = 0;
    u64 nHits = 0, nMisses = 0, nMerges = 0, nWritebacks = 0;
    u64 nMshrStallCycles = 0;
};

} // namespace rix

#endif // RIX_MEM_CACHE_HH
