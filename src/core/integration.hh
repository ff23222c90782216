/**
 * @file
 * The integration engine: the renaming-stage decision logic of register
 * integration (paper section 2).
 *
 * The engine is pipeline-agnostic. The renamer presents each
 * instruction together with its map-table-translated source registers;
 * the engine answers "integrate this output register" or "allocate and
 * record entries". The caller owns the map table and applies the
 * decision (and can veto it, e.g. with the oracle mis-integration
 * suppressor, which needs access to values).
 *
 * Instruction classes that never integrate: stores (their execution
 * arms store-load forwarding and must happen), direct jumps (free at
 * decode), calls/returns/indirect jumps, syscalls (executed at
 * retirement), nops and halts.
 *
 * Entry creation on failed integration:
 *  - ALU ops and loads create a direct entry;
 *  - conditional branches create an outcome entry (filled at execute);
 *  - in Reverse mode, stack-pointer-based stores create the entry of
 *    the complementary load, and stack-pointer decrements create the
 *    entry of the complementary increment (with input and output
 *    registers swapped and the immediate negated).
 */

#ifndef RIX_CORE_INTEGRATION_HH
#define RIX_CORE_INTEGRATION_HH

#include <deque>

#include "core/integration_table.hh"
#include "core/lisp.hh"
#include "core/params.hh"
#include "core/reg_state.hh"
#include "isa/inst.hh"

namespace rix
{

/** A renaming instruction, as seen by the integration logic. */
struct RenameCandidate
{
    Instruction inst;
    InstAddr pc = 0;
    unsigned callDepth = 0;
    u64 seq = 0;            // rename-stream sequence number
    bool hasSrc1 = false, hasSrc2 = false;
    PhysReg src1 = invalidPhysReg, src2 = invalidPhysReg;
    u8 src1Gen = 0, src2Gen = 0;
};

/** Outcome of an integration attempt. */
struct IntegrationResult
{
    bool integrated = false;
    bool reverse = false;       // matched a reverse entry
    bool suppressed = false;    // a match existed but the LISP vetoed it

    // Register payload (non-branch integrations).
    PhysReg preg = invalidPhysReg;
    u8 gen = 0;

    // Branch payload.
    bool isBranch = false;
    bool taken = false;

    u64 producerSeq = 0;        // creator's rename seq (distance stats)
    ITHandle entryHandle;       // matched entry (for invalidation)
};

class IntegrationEngine
{
  public:
    IntegrationEngine(const IntegrationParams &params,
                      RegStateVector &reg_state);

    /** Reconfigure (same register-state binding) and return to the
     *  power-on state: empty IT, cold LISP, no pending writes. */
    void reset(const IntegrationParams &params);

    /** True when this instruction's class may integrate results; the
     *  same classes create a direct entry when they do not (entries
     *  describe results that future instances, or squashed-and-
     *  refetched ones, may integrate). */
    static bool
    classIntegrates(const Instruction &inst)
    {
        switch (inst.cls()) {
          case InstClass::SimpleInt:
          case InstClass::ComplexInt:
          case InstClass::FloatOp:
          case InstClass::Load:
            return inst.writesReg();
          case InstClass::Branch:
            return true;
          default:
            return false;
        }
    }

    /**
     * Attempt integration. Pure decision: neither the map table nor the
     * reference counts are modified; the caller applies (or vetoes) the
     * result and then calls addRef itself. When @p probe is given,
     * the IT probe of the candidate's key is left in it (made() is
     * false when no lookup ran), for recordEntries() to reuse.
     */
    IntegrationResult tryIntegrate(const RenameCandidate &cand,
                                   ITProbe *probe = nullptr);

    /**
     * Record IT entries for a renamed instruction. Call after the
     * destination register is known (allocated or integrated).
     *
     * @param cand        the renamed instruction
     * @param has_dest    instruction writes a register
     * @param dest        destination physical register
     * @param dest_gen    its generation
     * @param integrated  integration succeeded (direct entry skipped;
     *                    reverse entries are still created)
     * @param probe       tryIntegrate()'s probe of this candidate,
     *                    reused for the direct entry; null (or a
     *                    probe not made) probes the key afresh
     * @return handle of the created branch-outcome entry, if any
     */
    ITHandle recordEntries(const RenameCandidate &cand, bool has_dest,
                           PhysReg dest, u8 dest_gen, bool integrated,
                           const ITProbe *probe = nullptr);

    /** Forward a branch outcome to its IT entry. */
    void fillBranchOutcome(const ITHandle &h, bool taken);

    IntegrationTable &table() { return it; }
    Lisp &lisp() { return lisp_; }
    const IntegrationParams &params() const { return p; }

    u64 reverseEntriesCreated() const { return nReverseEntries; }
    u64 directEntriesCreated() const { return nDirectEntries; }

    /** Entries currently buffered in the pipelined IT write stage. */
    size_t pendingWrites() const { return pending.size(); }

  private:
    ITKey keyFor(const RenameCandidate &cand) const;

    /**
     * Pipelined integration (itWriteDelay > 0): inserts are buffered
     * and become visible only once the rename stream has advanced past
     * the creator by the configured depth. Drained at the head of
     * every lookup/insert with the current stream position.
     */
    struct PendingInsert
    {
        u64 visibleAtSeq = 0;
        ITProbe probe; // the key's probe, made at rename
        ITEntry entry; // its id names the pending record until drained
    };

    void
    drainPending(u64 now_seq)
    {
        if (!pending.empty() && pending.front().visibleAtSeq <= now_seq)
            drainPendingUntil(now_seq);
    }
    void drainPendingUntil(u64 now_seq);
    ITHandle enqueueOrInsert(const ITProbe &probe, const ITEntry &entry);

    IntegrationParams p;
    RegStateVector &regs;
    IntegrationTable it;
    Lisp lisp_;
    std::deque<PendingInsert> pending;
    u64 nextPendingId = 1;
    u64 nReverseEntries = 0, nDirectEntries = 0;
};

} // namespace rix

#endif // RIX_CORE_INTEGRATION_HH
