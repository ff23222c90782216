/**
 * @file
 * The out-of-order, 13-stage, 4-way superscalar core with register
 * integration (paper section 3.1 machine).
 *
 * Pipeline organization (stage latencies are modeled with timestamps,
 * not per-stage latches; the in-order front end and back end charge
 * their configured depths):
 *
 *   fetch(3) -> decode(1) -> rename+integrate(1) -> schedule(2) ->
 *   regread(2) -> execute(1+) -> writeback(1) -> DIVA(1) -> retire(1)
 *
 * Integrating instructions bypass schedule/regread/execute/writeback
 * entirely: they complete at rename as soon as their integrated
 * register's value is ready.
 *
 * Wrong paths are genuinely executed: fetch follows the predictors,
 * wrong-path instructions allocate registers and compute values, and
 * squash recovery walks the ROB restoring the map table, reference
 * counts and front-end state — which is what makes squash reuse (and
 * its 0/T vs 0/F deadlock rule) observable.
 *
 * The DIVA checker is the in-order golden emulator: every retiring
 * instruction is re-executed architecturally and compared. For
 * integrated instructions a mismatch is a mis-integration (full flush,
 * LISP training); for anything else it is a simulator invariant
 * violation, recorded as a DivergenceReport that stops the core.
 */

#ifndef RIX_CPU_CORE_HH
#define RIX_CPU_CORE_HH

#include <array>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/integration.hh"
#include "cpu/completion_queue.hh"
#include "cpu/core_stats.hh"
#include "cpu/divergence.hh"
#include "cpu/dyn_inst.hh"
#include "cpu/dyn_inst_pool.hh"
#include "cpu/params.hh"
#include "emu/emulator.hh"
#include "mem/write_buffer.hh"

namespace rix
{

class TraceSink;

class Core
{
  public:
    Core(const Program &prog, const CoreParams &params);

    /**
     * Rebind to a new program/configuration and return to the
     * power-on state, producing bit-identical simulations to a
     * freshly constructed Core. The expensive long-lived storage —
     * the instruction pool, sparse-memory pages, integration-table
     * arrays, cache/predictor arrays — is reused instead of being
     * reallocated, which is what makes a per-worker core context
     * cheap to recycle across sweep jobs.
     */
    void reset(const Program &prog, const CoreParams &params);

    /**
     * Reset as above, but resume from the architectural checkpoint
     * @p from (taken on @p prog): the restored emulator becomes the
     * DIVA golden state, fetch starts at the checkpoint PC, and the
     * detailed simulation retires exactly the architectural stream
     * from that point on. Statistics start at zero. A checkpoint
     * taken at/after HALT yields an immediately-done core.
     */
    void reset(const Program &prog, const CoreParams &params,
               const Checkpoint &from);

    struct RunResult
    {
        u64 retired = 0;
        Cycle cycles = 0;
        bool halted = false;
    };

    /** Advance one cycle: the reference that run() must match. */
    void tick();

    /**
     * Run until HALT retires or a limit is hit. Note run() is a stop
     * *condition* checked between cycles: the final cycle can retire
     * up to retire-width instructions past @p max_retired. A driver
     * that polls or samples between cycles (SimContext) runs it in
     * chunks, passing each chunk's end as @p max_cycles.
     *
     * Bit-identical to calling tick() until the same condition holds,
     * but faster: after a quiescent tick (one the next ticks would only
     * repeat; see changed_) run() jumps to the next cycle at which
     * anything can change and applies the skipped cycles' effects in
     * closed form.
     */
    RunResult run(u64 max_retired = ~u64(0), Cycle max_cycles = ~Cycle(0));

    /**
     * Hard retirement boundary: retireStage() never retires the
     * instruction that would make the retired count exceed
     * @p absolute_retired (counted since reset). The sampled-interval
     * driver uses this so warmup and measure windows end *exactly* on
     * their budgets — adjacent intervals never double-count the
     * stream through multi-wide retirement overshoot. Cleared (no
     * boundary) by reset().
     */
    void setRetireStop(u64 absolute_retired)
    {
        retireStopAt = absolute_retired;
    }

    bool halted() const { return done && !divergence_.diverged && !stuck_; }
    /** No cycle is left to run: halted, stuck or diverged. */
    bool stopped() const { return done; }
    Cycle now() const { return cycle; }
    const CoreStats &stats() const { return stats_; }
    const CoreParams &params() const { return p; }

    /** Committed architectural state (the DIVA golden model). */
    const Emulator &golden() const { return golden_; }

    /**
     * Non-null after the DIVA check found a divergence on a
     * non-integrated instruction (a simulator bug, not a
     * mis-integration): the run stopped at the offending instruction
     * (halted() stays false) and the report carries the architectural
     * position, disassembly, mismatching values and the committed
     * architectural state. A driver that calls run() directly must
     * check this before trusting the statistics (requireNoDivergence
     * in sim/simulator.hh).
     */
    const DivergenceReport *
    divergence() const
    {
        return divergence_.diverged ? &divergence_ : nullptr;
    }

    /**
     * True after the forward-progress watchdog tripped: no instruction
     * retired for watchdogCycles cycles (a stuck simulation — e.g. a
     * scheduling deadlock or a wrong-path livelock). The run stops
     * (halted() stays false) instead of panicking, so a stuck job is
     * a reportable per-job failure rather than process death.
     */
    bool stuck() const { return stuck_; }
    const std::string &stuckReason() const { return stuckReason_; }

    IntegrationEngine &integration() { return integ; }
    RegStateVector &regStateVector() { return regState; }
    MemHierarchy &memHierarchy() { return mem; }
    BranchPredictorUnit &branchPredictor() { return bpred; }

    /**
     * Attach a pipeline-trace sink (not owned; null detaches): every
     * instruction leaving the pipeline while the retired count is in
     * [start, start+count) — retired at the ROB head or squashed on a
     * recovery walk — is emitted as one TraceEvent. Observability
     * only: simulated state and every CoreStats field are
     * bit-identical with or without a sink. Cleared by reset().
     */
    void setTraceSink(TraceSink *sink, u64 start, u64 count);

    /**
     * Section-A coverage events (trace/coverage.hh bit positions) that
     * no CoreStats counter records: branch-outcome integration, the
     * rename-time redirect, direction-predictor edges, CHT decrements
     * and write-buffer stalls at retire. OR-ed in unconditionally as
     * they happen and cleared by reset(); every other coverage bit is
     * derived from the counters after the run (CoverageMap::harvest).
     */
    u64 uncountedEvents() const { return uncountedEvents_; }

    /** In-flight instruction count (tests). */
    size_t robOccupancy() const { return rob.size(); }
    unsigned rsOccupancy() const { return rsBusy; }

  private:
    struct Mapping
    {
        PhysReg preg = invalidPhysReg;
        u8 gen = 0;
    };

    /** Validated reference to a pooled instruction: live iff the pool
     *  slot still carries the same sequence number. */
    struct InstRef
    {
        InstHandle h = invalidInstHandle;
        InstSeqNum seq = 0;

        InstRef() = default;
        // A constructor builds a ref in its slot; a braced aggregate
        // temporary is built on the stack and copied with one wide load
        // that stalls on the two narrow stores before it.
        InstRef(InstHandle handle, InstSeqNum s) : h(handle), seq(s) {}
    };

    struct SqEntry
    {
        InstSeqNum seq = 0;
        InstHandle owner = invalidInstHandle;
        Addr addr = 0;
        unsigned size = 0;
        u64 data = 0;
        bool resolved = false;
    };

    struct LqEntry
    {
        InstSeqNum seq = 0;
        InstHandle owner = invalidInstHandle;
        Addr addr = 0;
        unsigned size = 0;
        bool resolved = false;
        InstSeqNum forwardedFrom = 0; // 0: memory/cache
    };

    // ---- pipeline stages (called youngest-last each cycle) ----
    void retireStage();
    void writebackStage();
    void issueStage();
    void renameStage();
    void fetchStage();

    // ---- rename helpers ----
    bool renameOne(InstHandle h);
    bool oracleWouldMisintegrate(const DynInst &di,
                                 const IntegrationResult &res) const;
    void applyIntegration(DynInst &di, const IntegrationResult &res);
    void finishRenameCommon(DynInst &di);

    // ---- execute helpers ----
    /** Issue-readiness check with wakeup registration: a candidate
     *  blocked on a source register parks itself on that register's
     *  waiter list (and leaves the issue mask) until writeback wakes
     *  it; CHT-blocked loads return false without parking and are
     *  re-polled. */
    bool checkReadyOrPark(DynInst &di);
    /** Append @p di to register @p r's waiter list. */
    void waitOn(PhysReg r, DynInst &di);
    /** Take a squashed @p di off the waiter list it is on, if any. */
    void unwait(const DynInst &di);
    void
    setIssueBit(u16 slot)
    {
        issueMask[slot >> 6] |= u64(1) << (slot & 63);
    }
    void
    clearIssueBit(u16 slot)
    {
        issueMask[slot >> 6] &= ~(u64(1) << (slot & 63));
    }
    void executeAlu(DynInst &di);
    bool executeLoad(DynInst &di);
    void executeStore(DynInst &di);
    void scheduleCompletion(DynInst &di, Cycle when);
    void completeNow(DynInst &di, Cycle when);
    void resolveControl(DynInst &di);
    u64 memReadOverlay(Addr addr, unsigned size, InstSeqNum before) const;
    void checkStoreViolation(DynInst &store_inst);

    // ---- quiescence (run()'s cycle skipping; core.cc) ----
    /** The earliest cycle, at or after `cycle`, at which a tick can
     *  differ from the quiescent one just run. */
    Cycle nextEventCycle() const;
    /** After a quiescent tick: advance to the next event (at most to
     *  @p max_cycles), applying the skipped ticks' effects. */
    void skipQuiescent(Cycle max_cycles);

    // ---- recovery ----
    /**
     * Squash every instruction younger than @p boundary (or including
     * it when @p include_boundary); restore map/refcounts/front-end;
     * redirect fetch to @p new_pc after @p penalty cycles.
     */
    void squashFrom(DynInst &boundary, bool include_boundary,
                    InstAddr new_pc, unsigned penalty, SquashCause cause);
    void undoRename(DynInst &di);

    // ---- retire helpers ----
    bool divaCheck(const DynInst &di, const StepResult &expected) const;
    void handleMisintegration(DynInst &di);
    void recordRetireStats(const DynInst &di);

    // ---- trace taps (out-of-line; cold unless a sink is attached) ----
    void traceRetired(const DynInst &di);
    void traceSquashed(const DynInst &di, SquashCause cause);
    bool
    traceArmed() const
    {
        return stats_.retired >= traceStart_ && stats_.retired < traceEnd_;
    }

    u64 readReg(PhysReg r) const { return pregValue[r]; }

    /** ROB entry with sequence number @p seq, or nullptr (binary
     *  search over the in-order ROB ring; no hash map). */
    const DynInst *findInst(InstSeqNum seq) const;
    DynInst *
    findInst(InstSeqNum seq)
    {
        return const_cast<DynInst *>(
            static_cast<const Core *>(this)->findInst(seq));
    }

    /** Everything reset() does except the golden-state (re)binding —
     *  shared by the fresh and from-checkpoint paths. */
    void resetMicroarch(const Program &prog, const CoreParams &params);

    /** Record a DIVA divergence on @p di (what diverged and why) and
     *  stop the run; divergence.cc. */
    void stopDiverged(const DynInst &di, const char *kind,
                      std::string reason);
    /** The pipeline retires a pc the architectural stream never
     *  reaches (golden_.pc() != di.pc). */
    void recordStreamMismatch(const DynInst &di);
    /** A non-integrated instruction's pipeline result disagrees with
     *  the golden preview @p expected. */
    void recordValueMismatch(const DynInst &di, const StepResult &expected);

    /** Shared tail of construction and reset(): pin the zero register,
     *  map the architectural registers from the golden state, point
     *  fetch at its PC. */
    void initArchState();
    /** Fail loudly on a ROB whose ring slots overflow DynInst::robSlot. */
    void checkRobSlots() const;

    // ---- configuration & substrates ----
    const Program *prog; // never null; rebindable via reset()
    // The program's pre-decoded form: fetch hands each DynInst a
    // pointer into it, and the pipeline stages read port/latency/
    // operand metadata from there instead of re-deriving traits.
    std::shared_ptr<const DecodedProgram> deco_;
    CoreParams p;
    Emulator golden_;
    MemHierarchy mem;
    BranchPredictorUnit bpred;
    RegStateVector regState;
    IntegrationEngine integ;
    WriteBuffer writeBuffer;
    std::vector<SatCounter> cht;

    // ---- register state ----
    std::vector<u64> pregValue;
    std::array<Mapping, numLogRegs> map;
    PhysReg zeroPreg = invalidPhysReg;

    // ---- windows ----
    // In-flight instructions live in the fixed pool, sized to the
    // fetch queue plus the ROB; the fetch queue and ROB are rings of
    // handles into it (no per-inst heap traffic).
    DynInstPool pool;
    HandleRing fetchQueue;
    HandleRing rob;
    std::deque<SqEntry> sq;
    std::deque<LqEntry> lq;
    // Queue positions of sq.front() and lq.front(), counted since
    // reset: an op's entry is sq[di.lsqPos - sqHeadPos] (lq alike).
    u32 sqHeadPos = 0;
    u32 lqHeadPos = 0;
    unsigned rsBusy = 0;

    // ---- event plumbing ----
    // Completion events by cycle; same-cycle events fire in age order,
    // so e.g. the older of two branches resolving in one cycle
    // squashes the younger before it can resolve. Events carry a
    // validated handle so firing one is O(1) (no ROB search).
    CompletionQueue completions;
    // Instructions waiting for a physical register's value, indexed by
    // that register: integrated instructions that complete with it and
    // RS instructions parked on it as a source. Each list is threaded
    // through DynInst::waitNext (a record waits on one register at a
    // time), in the order the records joined it; writeback drains a
    // register's list once, and a squash unlinks its victims.
    struct WaitList
    {
        InstHandle head = invalidInstHandle;
        InstHandle tail = invalidInstHandle;
    };
    std::vector<WaitList> waiters;
    // Issue-candidate buffers (priority and other), rsSize entries
    // each, reused every cycle.
    std::vector<InstRef> issuePrio, issueRest;
    // The issue candidates, one bit per ROB ring slot: a bit is set
    // exactly while its instruction is in the RS and neither issued
    // nor parked on an operand. Rename sets it, issue and squash clear
    // it, and a parked instruction's bit is cleared when it parks and
    // set again when writeback wakes it, so the scheduler never
    // re-polls a parked instruction. The ROB is age-ordered, so
    // walking the set bits from the ROB head's slot visits the
    // candidates oldest first, with no list to merge or compact.
    std::vector<u64> issueMask;

    // ---- fetch state ----
    InstAddr fetchPc = 0;
    Cycle fetchStallUntil = 0;

    // ---- issue state ----
    // Oldest unresolved store-queue seq, recomputed once per issue
    // cycle (sq cannot change during candidate collection) so the
    // per-load collision check is O(1) instead of an SQ scan.
    InstSeqNum oldestUnresolvedStore = ~InstSeqNum(0);

    // ---- quiescence ----
    // A tick is quiescent when the ticks after it would repeat its
    // repeatable effects and do nothing else: the cycle and occupancy
    // sums, the fetch probe of a full fetch queue, and the stalled
    // rename head's integration attempt. Any other effect (a retire, a
    // writeback event, an issue attempt, a fetch or fetch stall, a
    // rename, a write-buffer drain, a squash) sets changed_. A park
    // does not: it only takes its candidate out of later scans. tick()
    // clears changed_ and the repeat records below; the stages fill
    // them in.
    bool changed_ = false;
    // Fetch probed this line and fetched nothing (full fetch queue).
    bool fetchRepeats_ = false;
    Addr fetchRepeatAddr_ = 0;
    // The rename head stalled after its integration attempt: the IT
    // probe it made (made() false: none), whether the LISP vetoed it
    // (a LISP hit on its pc) and whether the oracle did.
    bool renameRepeats_ = false;
    ITProbe renameRepeatProbe_;
    InstAddr renameRepeatPc_ = 0;
    bool renameRepeatSuppressed_ = false;
    bool renameRepeatOracle_ = false;
    // The earliestIssue of the candidate that ended the issue scan
    // (~0: none did): the first cycle a skipped candidate may issue.
    Cycle issueWake_ = ~Cycle(0);

    // ---- bookkeeping ----
    u64 retireStopAt = ~u64(0);
    InstSeqNum nextSeq = 1;
    u64 renameStreamPos = 0;
    Cycle cycle = 0;
    bool done = false;
    DivergenceReport divergence_;
    bool stuck_ = false;
    std::string stuckReason_;
    Cycle lastProgressCycle = 0;
    CoreStats stats_;

    u64 uncountedEvents_ = 0; // see uncountedEvents()

    // ---- the per-instruction trace tap ----
    // The core's only attachment: null when off, so the disabled
    // tracer costs one pointer test per retiring/squashed instruction
    // and never feeds back into simulated state. Cancellation and
    // interval metrics are SimContext's, between chunks of cycles;
    // coverage is harvested from the counters after the run.
    TraceSink *trace_ = nullptr;
    u64 traceStart_ = 0;
    u64 traceEnd_ = 0; // exclusive; 0 with trace_ null
};

} // namespace rix

#endif // RIX_CPU_CORE_HH
