/**
 * @file
 * Set-associative TLB. Translation is identity (no paging is
 * simulated); the TLB exists purely for its timing behaviour: a miss
 * costs a fixed hardware-walk latency (30 cycles in the paper's
 * configuration).
 */

#ifndef RIX_MEM_TLB_HH
#define RIX_MEM_TLB_HH

#include <vector>

#include "base/types.hh"

namespace rix
{

struct TlbParams
{
    unsigned entries = 128;
    unsigned assoc = 4;
    unsigned pageBytes = 8192; // Alpha-style 8K pages
    Cycle missLatency = 30;
};

class Tlb
{
  public:
    explicit Tlb(const TlbParams &params);

    /** Reconfigure and return to the power-on state. */
    void reset(const TlbParams &params);

    /**
     * Translate the page containing @p addr.
     * @return extra latency: 0 on hit, missLatency on miss (the entry
     *         is filled). Inline hit loop: this runs for every ifetch
     *         group and every issued load/store.
     */
    Cycle
    access(Addr addr)
    {
        const u64 vpn = vpnOf(addr);
        const unsigned assoc = unsigned(table.size()) / sets;
        Entry *base = &table[std::size_t(setOf(vpn)) * assoc];
        for (unsigned w = 0; w < assoc; ++w) {
            Entry &e = base[w];
            if (e.valid && e.vpn == vpn) {
                e.lruStamp = ++lruClock;
                ++nHits;
                return 0;
            }
        }
        return fillOnMiss(vpn, base, assoc);
    }

    /** The side effects of @p k more hits on @p addr's page, which
     *  must hit: the same LRU stamp and counter as @p k access calls,
     *  in O(1). */
    void repeatHit(Addr addr, u64 k);

    bool probe(Addr addr) const;

    u64 hits() const { return nHits; }
    u64 misses() const { return nMisses; }

    void flush();

  private:
    struct Entry
    {
        bool valid = false;
        u64 vpn = 0;
        u64 lruStamp = 0;
    };

    u64 vpnOf(Addr a) const { return a / p.pageBytes; }
    u32 setOf(u64 vpn) const { return u32(vpn) & (sets - 1); }

    /** Miss path: victim selection and refill. */
    Cycle fillOnMiss(u64 vpn, Entry *base, unsigned assoc);

    TlbParams p;
    unsigned sets;
    std::vector<Entry> table;
    u64 lruClock = 0;
    u64 nHits = 0, nMisses = 0;
};

} // namespace rix

#endif // RIX_MEM_TLB_HH
