/**
 * @file
 * Physical register state vector with true reference counts (paper
 * section 2.2).
 *
 * Each physical register carries:
 *  - a saturating reference count (the number of active mappings:
 *    in-flight or retired-but-not-shadowed logical register instances),
 *  - a valid bit distinguishing the two zero-reference states: 0/F
 *    ("contains garbage", produced by a squashed instruction that never
 *    executed — integrating it would deadlock) and 0/T ("unused but
 *    useful, integration-eligible"),
 *  - a wrap-around generation counter incremented at every reallocation
 *    (the register mis-integration filter of section 2.2),
 *  - a ready bit maintained by the pipeline (value computed), which
 *    decides the 0/T vs 0/F transition on squash,
 *  - the zero-origin (squash vs overwrite), needed to restrict the
 *    squash-reuse-only mode to squashed registers.
 *
 * Free-register reclamation is circular/FIFO (the paper pairs FIFO
 * reclamation with IT LRU to approximate coordinated replacement).
 */

#ifndef RIX_CORE_REG_STATE_HH
#define RIX_CORE_REG_STATE_HH

#include <cstddef>
#include <deque>
#include <vector>

#include "base/types.hh"
#include "core/params.hh"

namespace rix
{

/** Why a reference count dropped to zero. */
enum class ZeroOrigin : u8
{
    Never,      // never been mapped since reset (initial free state)
    Squashed,   // last unmapping was a mis-speculation squash
    Shadowed,   // last unmapping was an architectural overwrite at retire
};

class RegStateVector
{
  public:
    explicit RegStateVector(const IntegrationParams &params);

    /** Reconfigure and return to the power-on state (all registers
     *  free, counts zero, generations zero, FIFO queue rebuilt). */
    void reset(const IntegrationParams &params);

    /** Total physical registers. */
    unsigned numRegs() const { return unsigned(entries.size()); }

    /** Registers currently reclaimable (count == 0, not pinned). */
    unsigned freeCount() const;

    /**
     * Allocate a register in FIFO order. The register transitions to
     * count=1, valid (a mapped register is integration-eligible), not
     * ready, and its generation counter advances.
     */
    PhysReg allocate();

    /**
     * allocate() when a register is reclaimable, else invalidPhysReg
     * with the free queue untouched, in one pass over the queue.
     */
    PhysReg
    tryAllocate()
    {
        // The queue may hold stale entries for registers that were
        // resurrected by an integration after dropping to zero; they
        // are skipped (and re-queued when they drop to zero again).
        size_t stale = 0;
        for (const PhysReg r : freeQueue) {
            if (!reclaimable(r)) {
                ++stale;
                continue;
            }
            for (size_t k = 0; k <= stale; ++k)
                freeQueue.pop_front();
            Entry &e = entries[r];
            e.count = 1;
            e.valid = true;  // mapped registers are integration-eligible
            e.ready = false; // value not computed yet
            e.gen = u8((e.gen + 1) & genMask);
            e.origin = ZeroOrigin::Never;
            return r;
        }
        return invalidPhysReg;
    }

    /**
     * Pin a register (used for the architectural zero register): it is
     * permanently mapped and never reclaimed or integrated.
     */
    void pin(PhysReg r);

    /** Add a mapping (an integration). Count must not be saturated. */
    void addRef(PhysReg r);

    /** True when the count cannot be incremented further. */
    bool refSaturated(PhysReg r) const;

    /** Pipeline notification: the register's value has been computed. */
    void markReady(PhysReg r) { entries[r].ready = true; }

    bool ready(PhysReg r) const { return entries[r].ready; }

    /**
     * Remove a mapping because a younger instruction's retirement
     * architecturally overwrote it. On the last mapping the register
     * becomes 0/T (still integration-eligible) and reclaimable.
     */
    void
    releaseOverwrite(PhysReg r)
    {
        Entry &e = entries[r];
        if (e.pinnedReg)
            return;
        if (e.count == 0)
            zeroCountPanic("releaseOverwrite", r);
        if (--e.count == 0)
            dropToZero(e, r, ZeroOrigin::Shadowed);
    }

    /**
     * Remove a mapping because the mapping instruction was squashed
     * (also used to undo allocations and integrations during recovery).
     * On the last mapping the register becomes 0/T if its value was
     * computed, 0/F otherwise (deadlock-avoidance rule).
     */
    void releaseSquash(PhysReg r);

    u8 count(PhysReg r) const { return entries[r].count; }
    bool valid(PhysReg r) const { return entries[r].valid; }
    u8 gen(PhysReg r) const { return entries[r].gen; }
    ZeroOrigin zeroOrigin(PhysReg r) const { return entries[r].origin; }
    bool pinned(PhysReg r) const { return entries[r].pinnedReg; }

    /**
     * Integration-eligibility test.
     * @param r         candidate output register of an IT entry
     * @param expect_gen generation recorded in the IT entry
     * @param mode      integration mode (squash-only is restrictive)
     * @param check_gen whether generation counters participate (ablation)
     */
    bool eligible(PhysReg r, u8 expect_gen, IntegrationMode mode,
                  bool check_gen = true) const;

    /**
     * Structural invariant: every count==0 non-pinned register is
     * reachable through the free queue (no leaks). O(n); test use.
     */
    bool checkNoLeaks() const;

  private:
    struct Entry
    {
        u8 count = 0;
        u8 gen = 0;
        bool valid = false;
        bool ready = false;
        bool pinnedReg = false;
        ZeroOrigin origin = ZeroOrigin::Never;
    };

    bool
    reclaimable(PhysReg r) const
    {
        return entries[r].count == 0 && !entries[r].pinnedReg;
    }

    void
    dropToZero(Entry &e, PhysReg r, ZeroOrigin why)
    {
        e.origin = why;
        // Deadlock-avoidance rule: a squash-unmapped register whose
        // value was never computed must not be integrated (0/F);
        // everything else keeps its useful value (0/T).
        e.valid = (why == ZeroOrigin::Shadowed) || e.ready;
        freeQueue.push_back(r);
    }

    [[noreturn]] static void zeroCountPanic(const char *op, PhysReg r);

    std::vector<Entry> entries;
    std::deque<PhysReg> freeQueue; // FIFO reclamation order (lazy entries)
    u8 maxCount;
    u8 genMask;
};

} // namespace rix

#endif // RIX_CORE_REG_STATE_HH
