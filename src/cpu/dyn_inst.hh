/**
 * @file
 * Dynamic (in-flight) instruction record: the unit tracked by the ROB,
 * reservation stations, load/store queues, and the integration stats.
 */

#ifndef RIX_CPU_DYN_INST_HH
#define RIX_CPU_DYN_INST_HH

#include <cstddef>

#include "bpred/predictor.hh"
#include "core/integration_table.hh"
#include "isa/decoded.hh"
#include "isa/inst.hh"

namespace rix
{

/** Why an in-flight instruction was squashed (pipeline-trace tap). */
enum class SquashCause : u8
{
    None,           // not squashed (retired)
    Branch,         // control misprediction (rename-time or execute-time)
    MemOrder,       // load/store ordering violation replay
    Misintegration, // DIVA-caught wrong integrated result, full flush
};

const char *squashCauseName(SquashCause cause);

/** Producer status observed when an instruction integrated (Figure 5). */
enum class IntegStatus : u8
{
    None,
    Rename,        // producer renamed but not yet issued
    Issue,         // producer issued (possibly completed, not retired)
    Retire,        // producer retired, mapping still live
    ShadowSquash,  // result was unmapped (refcount 0) at integration
};

/**
 * Fields are laid out for the per-cycle issue scan, not by pipeline
 * stage: everything the scheduler reads while deciding whether this
 * instruction can issue (seq validation, eligibility cycles, source
 * registers, decoded class, status flags) and everything writeback
 * reads to complete and wake it packs into the first 64 bytes, so
 * scanning a reservation-station candidate touches one cache line of
 * the record. The record is reset and recycled once per fetched
 * instruction, so total footprint is hot-loop traffic too.
 */
struct DynInst
{
    // ---- first cache line: issue-scan and writeback state ----
    InstSeqNum seq = 0;
    Cycle earliestIssue = 0;
    InstAddr pc = 0;            // identity; also the CHT index
    // Pre-decoded metadata for this static instruction, set at fetch
    // alongside inst; points into the program's shared DecodedProgram
    // (kept alive by Core::deco_). Never null once fetched.
    const DecodedInst *dec = nullptr;
    // The next record on the waiter list this one is on (the core's
    // per-register lists, walked at writeback); ~0 at the tail.
    // Meaningful only while waitingOperand, or integrated and not
    // completed.
    u32 waitNext = ~u32(0);
    u32 lsqPos = 0;             // LQ/SQ position (memory ops; Core::sq)
    PhysReg psrc1 = invalidPhysReg, psrc2 = invalidPhysReg;
    PhysReg pdest = invalidPhysReg;
    u8 gsrc1 = 0, gsrc2 = 0;
    u8 gdest = 0;
    // ROB ring slot, set at rename: the instruction's bit in the
    // core's issue mask.
    u16 robSlot = 0;
    // Rename.
    bool renamed = false;
    bool hasSrc1 = false, hasSrc2 = false;
    bool hasDest = false;
    // Integration.
    bool integrated = false;
    // Execution state.
    bool inRs = false;
    bool issued = false;
    bool completed = false;
    bool waitingOperand = false; // parked on an operand-waiter list
    // Control outcome.
    bool isCtrl = false;
    bool resolved = false;

    // ---- remaining state (widest fields first: no padding) ----
    Instruction inst;
    Cycle fetchCycle = 0;
    Cycle renameReadyCycle = 0; // exits decode; eligible for rename
    Cycle renameCycle = 0;
    u64 producerSeq = 0;        // creator's rename-stream position
    u64 renameStreamPos = 0;    // own rename-stream position
    Cycle issueCycle = 0;
    Cycle completeCycle = 0;
    InstAddr actualTarget = 0;  // next PC when taken
    Addr effAddr = 0;
    u64 storeData = 0;

    BranchPrediction pred;
    ITHandle createdEntry;      // branch-outcome entry this inst created
    ITHandle sourceEntry;       // entry this inst integrated from

    u32 selfHandle = ~u32(0);   // own pool handle, set at allocation

    PhysReg oldDest = invalidPhysReg; // previous mapping of dest lreg
    u8 oldDestGen = 0;
    bool oldDestValid = false;
    u8 refcountAfter = 0;       // reference count after the increment
    IntegStatus integStatus = IntegStatus::None;
    bool reverseIntegrated = false;
    // Control outcome.
    bool actualTaken = false;
    bool mispredicted = false;
    // Memory.
    bool addrValid = false;
    bool speculativePastStore = false;

    // Stamped by squashFrom on the recovery walk, read only by the
    // pipeline-trace drain (never by simulation logic).
    SquashCause squashCause = SquashCause::None;

    bool isLoad() const { return inst.isLoad(); }
    bool isStore() const { return inst.isStore(); }

    /** Next PC this instruction actually produces. */
    InstAddr
    actualNextPc() const
    {
        return (isCtrl && actualTaken) ? actualTarget : pc + 1;
    }

    /** Predicted next PC recorded at fetch. */
    InstAddr
    predictedNextPc() const
    {
        return (pred.isControl && pred.predTaken) ? pred.predTarget
                                                  : pc + 1;
    }
};

// The issue scan reads only the block before `inst`; a field added to
// that block must not push the scanned state past one cache line.
static_assert(offsetof(DynInst, inst) <= 64,
              "DynInst issue-scan state exceeds one cache line");

} // namespace rix

#endif // RIX_CPU_DYN_INST_HH
