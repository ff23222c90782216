/**
 * @file
 * Out-of-order core configuration.
 *
 * Defaults reproduce the paper's section 3.1 baseline: 4-way
 * superscalar, 13-stage pipeline (3 fetch, 1 decode, 1 rename,
 * 2 schedule, 2 register read, 1 execute, 1 writeback, 1 DIVA,
 * 1 retire), 128 instructions / 64 memory operations in flight, 40
 * reservation stations issuing up to 4 per cycle (2 simple integer,
 * 2 FP-or-complex, 1 load, 1 store), load/branch/FP scheduling
 * priority with age tie-break, speculative load issue with a 256-entry
 * collision history table, 2-cycle store-to-load forwarding, 16-entry
 * write buffer, 1K physical registers.
 */

#ifndef RIX_CPU_PARAMS_HH
#define RIX_CPU_PARAMS_HH

#include "bpred/predictor.hh"
#include "core/params.hh"
#include "mem/hierarchy.hh"

namespace rix
{

struct CoreParams
{
    // Widths.
    unsigned fetchWidth = 4;
    unsigned renameWidth = 4;
    unsigned issueWidth = 4;
    unsigned retireWidth = 4;

    // Front-end depth (fetch + decode stages before rename).
    unsigned fetchStages = 3;
    unsigned decodeStages = 1;
    // Back-end in-order depth between rename and execute.
    unsigned schedStages = 2;
    unsigned regReadStages = 2;

    // Window.
    unsigned robSize = 128;
    unsigned maxMemOps = 64;   // LQ + SQ combined occupancy cap
    unsigned rsSize = 40;
    unsigned fetchQueueSize = 16;

    // Issue-port mix.
    unsigned simpleIntSlots = 2;
    unsigned complexSlots = 2; // FP or complex integer
    unsigned loadSlots = 1;
    unsigned storeSlots = 1;
    // Figure 7 "IW" configuration: loads and stores share one port
    // (storeSlots is ignored; both classes draw from loadSlots).
    bool sharedLoadStorePort = false;

    // Memory timing.
    unsigned agenLatency = 1;
    unsigned storeForwardLatency = 2;
    unsigned writeBufferEntries = 16;

    // Load speculation.
    unsigned chtEntries = 256;

    // Recovery.
    unsigned squashPenalty = 1;     // redirect bubble after a squash
    unsigned misintPenalty = 1;     // monolithic mis-integration recovery

    // Substrates.
    BranchPredictorParams bpred;
    MemHierarchyParams mem;
    IntegrationParams integ;

    // Safety net for simulator debugging.
    u64 watchdogCycles = 200000;

    unsigned
    frontLatency() const
    {
        return fetchStages + decodeStages;
    }

    unsigned
    issueDelay() const
    {
        return schedStages + regReadStages;
    }
};

} // namespace rix

#endif // RIX_CPU_PARAMS_HH
