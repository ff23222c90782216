/**
 * @file
 * In-order functional emulator.
 *
 * Executes a Program architecturally, one instruction per step. Three
 * consumers:
 *   1. standalone golden-model runs (tests, workload validation),
 *   2. the DIVA checker, which steps the emulator along with
 *      retirement and compares every result the out-of-order core
 *      produced (mis-integration detection),
 *   3. examples that want architectural traces.
 *
 * Execution core: every path runs on the program's pre-decoded form
 * (isa/decoded.hh) — step()/preview() read pre-resolved operands
 * instead of re-deriving traits, and run() is one threaded loop: every
 * opcode, control included, dispatches through a computed-goto table
 * (GCC/Clang labels as values), and halt/fault/budget are checked only
 * at block boundaries. tests/test_decoded.cc
 * checks both step() and run() against a decode-per-step reference
 * interpreter (tests/reference_interp.hh).
 *
 * Stores that land in the program image (the immutable text segment,
 * byte addresses below codeSize * instructionBytes) raise a structured
 * EmuFault instead of corrupting the decoded form: the store does not
 * happen, pc/icount freeze at the faulting instruction, and
 * step()/run() refuse to execute further. Job layers surface the fault
 * as a contained per-job failure, never a panic.
 */

#ifndef RIX_EMU_EMULATOR_HH
#define RIX_EMU_EMULATOR_HH

#include <memory>
#include <string>
#include <vector>

#include "assembler/program.hh"
#include "emu/checkpoint.hh"
#include "emu/memory.hh"

namespace rix
{

/** Result of one architectural step, for tracing and DIVA comparison. */
struct StepResult
{
    InstAddr pc = 0;
    Instruction inst;
    InstAddr nextPc = 0;
    bool wroteReg = false;
    LogReg destReg = regZero;
    u64 destValue = 0;
    bool isMemAccess = false;
    Addr memAddr = 0;
    bool halted = false;
};

/** Structured emulator fault (JobStatus-style data, not a panic). */
struct EmuFault
{
    bool faulted = false;
    InstAddr pc = 0;   // the faulting (not executed) instruction
    Addr addr = 0;     // the offending store's effective address

    /** One-line human-readable description. */
    std::string describe() const;
};

class Emulator
{
  public:
    explicit Emulator(const Program &prog);

    /** Reset architectural state to the program's initial image. */
    void reset();

    /** Rebind to @p prog and reset — the reusable-context path: the
     *  sparse memory's page allocations survive across programs. */
    void reset(const Program &prog);

    /**
     * Capture the full architectural state at the current point.
     * @param diff_vs_image  store only the memory pages that differ
     *        from the program's initial data image (compact; the
     *        default) instead of every materialized page
     */
    Checkpoint snapshot(bool diff_vs_image = true) const;

    /**
     * Resume from @p c (which must have been taken on this emulator's
     * current program): subsequent steps are bit-identical to the run
     * the snapshot was taken from.
     */
    void restore(const Checkpoint &c);

    /** Rebind to @p prog, then restore — the reusable-context path
     *  (a checkpoint taken on A stays restorable after reset(B)). */
    void restore(const Program &prog, const Checkpoint &c);

    /** Execute one instruction; no-op (halted result) after HALT. */
    StepResult step();

    /**
     * Compute the next step's effects without committing them (the DIVA
     * checker's comparison path). commit() applies a previewed step.
     */
    StepResult preview() const;
    void commit(const StepResult &res);

    /**
     * Run until HALT, a text fault or @p max_steps; returns
     * instructions executed. Uninterruptible: callers bound the work
     * through @p max_steps.
     */
    u64 run(u64 max_steps = 100'000'000);

    bool halted() const { return isHalted; }
    InstAddr pc() const { return pcReg; }
    u64 reg(LogReg r) const { return r == regZero ? 0 : regs[r]; }
    void setReg(LogReg r, u64 v);
    const Memory &memory() const { return mem; }
    Memory &memory() { return mem; }
    u64 instsExecuted() const { return icount; }

    /** True after a store hit the immutable text segment; pc() names
     *  the faulting instruction, which did not execute. */
    bool faulted() const { return fault_.faulted; }
    const EmuFault &fault() const { return fault_; }

    /** Values emitted via SyscallCode::Emit, in order. */
    const std::vector<u64> &output() const { return out; }

    const Program &program() const { return *prog; }

  private:
    void raiseTextFault(InstAddr at, Addr addr);

    const Program *prog; // never null; rebindable via reset(Program)
    // Keeps the decoded form alive independently of the Program's own
    // cache.
    std::shared_ptr<const DecodedProgram> dec_;
    Memory mem;
    // Slot [numLogRegs] is the decoded dispatch's write sink (see
    // emuRegSink): never read, snapshotted, restored or compared.
    u64 regs[numLogRegs + 1] = {};
    InstAddr pcReg = 0;
    Addr textLimit_ = 0;
    bool isHalted = false;
    EmuFault fault_;
    u64 icount = 0;
    std::vector<u64> out;
};

} // namespace rix

#endif // RIX_EMU_EMULATOR_HH
