/**
 * @file
 * A minimal decode-per-step reference interpreter, the differential
 * oracle for the Emulator's pre-decoded execution core
 * (tests/test_decoded.cc).
 *
 * Every step fetches the raw Instruction from the Program and derives
 * its traits (class, operands, access size, target) on the spot: no
 * DecodedProgram, no block batching, no dispatch table. It shares only
 * the ISA's value semantics (aluCompute/branchTaken/loadValue) with the
 * Emulator, and models the same architectural contract: r31 reads zero
 * and drops writes, out-of-range pcs execute as NOPs, HALT freezes the
 * pc, and a store into the program image raises an EmuFault that
 * freezes pc/icount at the faulting instruction.
 */

#ifndef RIX_TESTS_REFERENCE_INTERP_HH
#define RIX_TESTS_REFERENCE_INTERP_HH

#include <vector>

#include "emu/emulator.hh"
#include "isa/decoded.hh"

namespace rix
{

class ReferenceInterp
{
  public:
    explicit ReferenceInterp(const Program &p) : prog(&p) { reset(); }

    void
    reset()
    {
        mem.clear();
        mem.writeBlock(prog->dataBase, prog->data);
        for (auto &r : regs)
            r = 0;
        regs[regSp] = prog->stackBase;
        regs[regGp] = prog->dataBase;
        pcReg = prog->entry;
        isHalted = false;
        fault_ = EmuFault{};
        icount = 0;
        out.clear();
    }

    void
    restore(const Checkpoint &c)
    {
        reset();
        if (!c.diffVsImage)
            mem.clear();
        mem.importPages(c.pages);
        for (unsigned r = 0; r < numLogRegs; ++r)
            regs[r] = c.regs[r];
        pcReg = c.pc;
        isHalted = c.halted;
        icount = c.icount;
        out = c.output;
    }

    StepResult
    step()
    {
        StepResult res;
        res.pc = pcReg;
        if (isHalted) {
            res.halted = true;
            return res;
        }
        if (fault_.faulted)
            return res;

        const Instruction inst = prog->fetch(pcReg);
        res.inst = inst;
        InstAddr next = pcReg + 1;
        const u64 a = reg(inst.src1());
        const u64 b = reg(inst.src2());

        switch (inst.cls()) {
          case InstClass::SimpleInt:
          case InstClass::ComplexInt:
          case InstClass::FloatOp:
            res.destValue = aluCompute(inst, a, b);
            break;
          case InstClass::Load:
            res.isMemAccess = true;
            res.memAddr = a + u64(s64(inst.imm));
            res.destValue =
                loadValue(inst.op, mem.read(res.memAddr, inst.accessSize()));
            break;
          case InstClass::Store:
            res.isMemAccess = true;
            res.memAddr = a + u64(s64(inst.imm));
            res.destValue = b; // the stored data
            if (res.memAddr < Addr(prog->code.size()) * instructionBytes) {
                res.nextPc = next;
                fault_.faulted = true;
                fault_.pc = pcReg;
                fault_.addr = res.memAddr;
                return res;
            }
            mem.write(res.memAddr, b, inst.accessSize());
            break;
          case InstClass::Branch:
            if (branchTaken(inst, a))
                next = InstAddr(u32(inst.imm));
            break;
          case InstClass::Jump:
            next = InstAddr(u32(inst.imm));
            break;
          case InstClass::Call:
            res.destValue = pcReg + 1;
            next = InstAddr(u32(inst.imm));
            break;
          case InstClass::IndirectJump:
          case InstClass::Return:
            next = InstAddr(a);
            break;
          case InstClass::Syscall:
            if (SyscallCode(inst.imm) == SyscallCode::Emit)
                out.push_back(a);
            break;
          case InstClass::Nop:
            break;
          case InstClass::Halt:
            res.halted = isHalted = true;
            next = pcReg;
            break;
        }

        res.wroteReg = inst.writesReg();
        if (res.wroteReg) {
            res.destReg = inst.rc;
            if (inst.rc != regZero)
                regs[inst.rc] = res.destValue;
        }
        res.nextPc = pcReg = next;
        ++icount;
        return res;
    }

    /** Step until HALT, a fault or @p max_steps. */
    u64
    run(u64 max_steps = 100'000'000)
    {
        const u64 start = icount;
        while (!isHalted && !fault_.faulted && icount - start < max_steps)
            step();
        return icount - start;
    }

    bool halted() const { return isHalted; }
    InstAddr pc() const { return pcReg; }
    u64 reg(LogReg r) const { return r == regZero ? 0 : regs[r]; }
    void
    setReg(LogReg r, u64 v)
    {
        if (r != regZero)
            regs[r] = v;
    }
    const Memory &memory() const { return mem; }
    u64 instsExecuted() const { return icount; }
    bool faulted() const { return fault_.faulted; }
    const EmuFault &fault() const { return fault_; }
    const std::vector<u64> &output() const { return out; }

  private:
    const Program *prog;
    Memory mem;
    u64 regs[numLogRegs] = {};
    InstAddr pcReg = 0;
    bool isHalted = false;
    EmuFault fault_;
    u64 icount = 0;
    std::vector<u64> out;
};

} // namespace rix

#endif // RIX_TESTS_REFERENCE_INTERP_HH
