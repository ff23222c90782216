/**
 * @file
 * Three-level memory hierarchy wired per the paper's section 3.1:
 *
 *  - 64KB / 32B / 2-way L1 instruction cache
 *  - 32KB / 32B / 2-way / 2-cycle write-back L1 data cache, 16 MSHRs
 *  - 64-entry 4-way ITLB, 128-entry 4-way DTLB, 30-cycle hardware walks
 *  - unified 2MB / 64B / 4-way / 6-cycle on-chip L2
 *  - infinite main memory, 80-cycle access
 *  - 32-byte backside (L1<->L2) bus at processor frequency
 *  - 32-byte memory bus at one-quarter processor frequency
 */

#ifndef RIX_MEM_HIERARCHY_HH
#define RIX_MEM_HIERARCHY_HH

#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"

namespace rix
{

struct MemHierarchyParams
{
    CacheParams l1i{"l1i", 64 * 1024, 32, 2, /*hitLat=*/1, 8};
    CacheParams l1d{"l1d", 32 * 1024, 32, 2, /*hitLat=*/2, 16};
    CacheParams l2{"l2", 2 * 1024 * 1024, 64, 4, /*hitLat=*/6, 16};
    TlbParams itlb{64, 4, 8192, 30};
    TlbParams dtlb{128, 4, 8192, 30};
    Cycle memLatency = 80;
    unsigned l2BusBytes = 32;
    unsigned l2BusCyclesPerBeat = 1;
    unsigned memBusBytes = 32;
    unsigned memBusCyclesPerBeat = 4;
};

class MemHierarchy
{
  public:
    explicit MemHierarchy(const MemHierarchyParams &params);

    /** Reconfigure every level and return to the power-on state. */
    void reset(const MemHierarchyParams &params);

    /** Instruction fetch of the line containing @p addr. */
    Cycle ifetch(Addr addr, Cycle now);

    /** The side effects of @p k more ifetch calls on @p addr, whose
     *  ITLB and L1I lookups must both hit: what @p k repeats of an
     *  idle cycle's fetch probe would do, in O(1). */
    void
    repeatIfetchHit(Addr addr, u64 k)
    {
        itlbUnit.repeatHit(addr, k);
        l1iCache.repeatHit(addr, k);
    }

    /** Data read; returns data-available cycle. */
    Cycle read(Addr addr, Cycle now);

    /** Data write (write-allocate); returns completion cycle. */
    Cycle write(Addr addr, Cycle now);

    Cache &l1i() { return l1iCache; }
    Cache &l1d() { return l1dCache; }
    Cache &l2() { return l2Cache; }
    Tlb &itlb() { return itlbUnit; }
    Tlb &dtlb() { return dtlbUnit; }
    Bus &l2Bus() { return backsideBus; }
    Bus &memBus() { return memoryBus; }

    const MemHierarchyParams &params() const { return p; }

  private:
    /** L1 miss handler: access L2 and transfer the line back. */
    Cycle fillFromL2(Addr l1_line_addr, Cycle now, unsigned l1_line_bytes);

    /** L2 miss handler: access memory over the memory bus. */
    Cycle fillFromMemory(Addr l2_line_addr, Cycle now);

    MemHierarchyParams p;
    Cache l1iCache, l1dCache, l2Cache;
    Tlb itlbUnit, dtlbUnit;
    Bus backsideBus, memoryBus;
};

} // namespace rix

#endif // RIX_MEM_HIERARCHY_HH
