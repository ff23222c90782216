#include "emu/emulator.hh"

#include "base/log.hh"
#include "trace/profiler.hh"

namespace rix
{

std::string
EmuFault::describe() const
{
    if (!faulted)
        return "no fault";
    return strfmt("text-write fault: store to 0x%llx at pc %llu (the "
                  "program image is immutable)",
                  (unsigned long long)addr, (unsigned long long)pc);
}

Emulator::Emulator(const Program &p) : prog(&p)
{
    reset();
}

void
Emulator::reset()
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
    textLimit_ = Addr(prog->code.size()) * instructionBytes;
    dec_ = prog->decodedShared();
}

void
Emulator::reset(const Program &p)
{
    prog = &p;
    reset();
}

Checkpoint
Emulator::snapshot(bool diff_vs_image) const
{
    ScopedPhase timer(HostPhase::CheckpointBuild);
    Checkpoint c;
    c.icount = icount;
    c.pc = pcReg;
    c.halted = isHalted;
    for (unsigned r = 0; r < numLogRegs; ++r)
        c.regs[r] = regs[r];
    c.output = out;
    c.diffVsImage = diff_vs_image;
    if (diff_vs_image) {
        // Diff against the pristine post-reset image: pages the run
        // never changed (the bulk of a large data segment) are
        // omitted and come back from the image on restore.
        c.pages = mem.exportPagesDiffImage(prog->dataBase, prog->data);
    } else {
        c.pages = mem.exportPages();
    }
    return c;
}

void
Emulator::restore(const Checkpoint &c)
{
    ScopedPhase timer(HostPhase::CheckpointRestore);
    if (c.diffVsImage) {
        reset(); // reload the program image...
        mem.importPages(c.pages); // ...then overlay the diff
    } else {
        mem.clear();
        mem.importPages(c.pages);
        textLimit_ = Addr(prog->code.size()) * instructionBytes;
        dec_ = prog->decodedShared();
        fault_ = EmuFault{};
    }
    for (unsigned r = 0; r < numLogRegs; ++r)
        regs[r] = c.regs[r];
    pcReg = c.pc;
    isHalted = c.halted;
    icount = c.icount;
    out = c.output;
}

void
Emulator::restore(const Program &p, const Checkpoint &c)
{
    prog = &p;
    restore(c);
}

void
Emulator::setReg(LogReg r, u64 v)
{
    if (r != regZero)
        regs[r] = v;
}

void
Emulator::raiseTextFault(InstAddr at, Addr addr)
{
    fault_.faulted = true;
    fault_.pc = at;
    fault_.addr = addr;
}

// ---------------------------------------------------------------------
// Preview/commit: the DIVA split. preview() computes one step's
// effects from the decoded form, commit() applies them.
// ---------------------------------------------------------------------

StepResult
Emulator::preview() const
{
    StepResult res;
    res.pc = pcReg;
    if (isHalted) {
        res.halted = true;
        return res;
    }
    if (fault_.faulted)
        return res;

    const DecodedInst &d = dec_->fetch(pcReg);
    res.inst = d.inst;
    InstAddr next = pcReg + 1;

    // Pre-resolved sources: unused sources read the (never-written)
    // zero register, so no trait checks are needed.
    const u64 a = regs[d.src1];
    const u64 b = regs[d.src2];

    switch (InstClass(d.cls)) {
      case InstClass::SimpleInt:
      case InstClass::ComplexInt:
      case InstClass::FloatOp:
        res.destValue = aluCompute(d.inst, a, b);
        res.wroteReg = d.writesReg();
        break;
      case InstClass::Load: {
        const Addr addr = a + u64(s64(d.imm));
        res.isMemAccess = true;
        res.memAddr = addr;
        res.destValue = loadValue(d.inst.op, mem.read(addr, d.size));
        res.wroteReg = d.writesReg();
        break;
      }
      case InstClass::Store: {
        const Addr addr = a + u64(s64(d.imm));
        res.isMemAccess = true;
        res.memAddr = addr;
        res.destValue = b; // the stored data
        break;
      }
      case InstClass::Branch:
        if (branchTaken(d.inst, a))
            next = InstAddr(d.target);
        break;
      case InstClass::Jump:
        next = InstAddr(d.target);
        break;
      case InstClass::Call:
        res.destValue = pcReg + 1;
        res.wroteReg = d.writesReg();
        next = InstAddr(d.target);
        break;
      case InstClass::IndirectJump:
      case InstClass::Return:
        next = InstAddr(a);
        break;
      case InstClass::Syscall:
        res.destValue = 0;
        res.wroteReg = d.writesReg();
        break;
      case InstClass::Nop:
        break;
      case InstClass::Halt:
        res.halted = true;
        next = pcReg;
        break;
    }

    if (res.wroteReg)
        res.destReg = d.inst.rc;
    res.nextPc = next;
    return res;
}

void
Emulator::commit(const StepResult &res)
{
    if (isHalted || fault_.faulted)
        return;
    const Instruction &inst = res.inst;
    if (inst.isStore()) {
        if (res.memAddr < textLimit_) {
            // Immutable text: the store does not happen; pc and icount
            // freeze at the faulting instruction.
            raiseTextFault(res.pc, res.memAddr);
            return;
        }
        mem.write(res.memAddr, res.destValue, inst.accessSize());
    } else if (inst.isSyscall() &&
               SyscallCode(inst.imm) == SyscallCode::Emit) {
        out.push_back(reg(inst.src1()));
    } else if (inst.isHalt()) {
        isHalted = true;
    }
    if (res.wroteReg)
        setReg(res.destReg, res.destValue);
    pcReg = res.nextPc;
    ++icount;
}

StepResult
Emulator::step()
{
    if (isHalted) {
        StepResult res;
        res.pc = pcReg;
        res.halted = true;
        return res;
    }
    if (fault_.faulted) {
        StepResult res;
        res.pc = pcReg;
        return res;
    }
    StepResult res = preview();
    commit(res);
    return res;
}

// ---------------------------------------------------------------------
// The run() fast path: one threaded loop over the decoded form. Every
// opcode, control included, has a handler in one computed-goto table;
// each handler ends in its own indirect jump to the next one. Handler
// bodies are generated from the same RIX_ALU_SEMANTICS /
// RIX_BRANCH_SEMANTICS tables the out-of-line aluCompute() and
// branchTaken() expand, so each opcode's semantics exist exactly once.
//
// The budget is charged a whole block at a time, on block entry
// (DecodedInst::blockLen is exact per pc), so straight-line handlers
// check nothing. The loop leaves only when it stops: budget spent,
// HALT, a text fault, or a pc past the code.
// ---------------------------------------------------------------------

#if !defined(__GNUC__) && !defined(__clang__)
#error "Emulator::run needs labels as values (GCC or Clang)"
#endif

// One straight-line ALU slot: read pre-resolved sources, write the
// pre-resolved destination (the sink slot when the op has none).
#define RIX_ALU_BODY(OP, EXPR) \
    { \
        const u64 a = regs[d->src1]; \
        const u64 b = regs[d->src2]; \
        const s64 sa = s64(a); \
        const s64 sb = s64(b); \
        const s64 imm = d->imm; \
        (void)b; (void)sa; (void)sb; (void)imm; \
        regs[d->dest] = (EXPR); \
    }

u64
Emulator::run(u64 max_steps)
{
    if (fault_.faulted || isHalted)
        return 0;

    // Dense dispatch table, indexed by DecodedInst::handler (== the
    // opcode value; RIX_OPCODE_LIST is static_asserted to match the
    // enum order), then the end-of-code sentinel's handler.
    static const void *const handlers[numOpcodes + 1] = {
#define X(OP) &&handle_##OP,
        RIX_OPCODE_LIST(X)
#undef X
        &&end_of_code,
    };

    const DecodedInst *const base = dec_->data();
    const u64 n = dec_->size();
    const Addr text_limit = textLimit_;
    const DecodedInst *d = base;
    InstAddr pc = pcReg;
    u64 left = max_steps; // budget not yet charged to a block
    Addr addr = 0;

// Enter the block at pc: charge all of it up front, or hand a budget
// that ends inside it to the tail.
#define RIX_ENTER_BLOCK() \
    do { \
        if (pc >= n) \
            goto wilderness; \
        d = base + pc; \
        if (d->blockLen > left) \
            goto budget_tail; \
        left -= d->blockLen; \
        goto *handlers[d->handler]; \
    } while (0)

#define RIX_NEXT() goto *handlers[(++d)->handler]

    RIX_ENTER_BLOCK();

#define X(OP, EXPR) \
  handle_##OP: \
    RIX_ALU_BODY(OP, EXPR) \
    RIX_NEXT();
    RIX_ALU_SEMANTICS(X)
#undef X

  handle_LDQ:
    regs[d->dest] = mem.read64(regs[d->src1] + u64(s64(d->imm)));
    RIX_NEXT();

  handle_LDL:
    regs[d->dest] =
        u64(s64(s32(mem.read32(regs[d->src1] + u64(s64(d->imm))))));
    RIX_NEXT();

  handle_STQ:
    addr = regs[d->src1] + u64(s64(d->imm));
    if (addr < text_limit)
        goto text_fault;
    mem.write64(addr, regs[d->src2]);
    RIX_NEXT();

  handle_STL:
    addr = regs[d->src1] + u64(s64(d->imm));
    if (addr < text_limit)
        goto text_fault;
    mem.write32(addr, u32(regs[d->src2]));
    RIX_NEXT();

  handle_SYSCALL:
    if (SyscallCode(d->imm) == SyscallCode::Emit)
        out.push_back(regs[d->src1]);
    regs[d->dest] = 0;
    RIX_NEXT();

  handle_NOP:
    RIX_NEXT();

  // Block terminators: compute the next pc and enter its block.
#define X(OP, COND) \
  handle_##OP: { \
        const s64 sa = s64(regs[d->src1]); \
        pc = (COND) ? InstAddr(d->target) : InstAddr(d - base) + 1; \
    } \
    RIX_ENTER_BLOCK();
    RIX_BRANCH_SEMANTICS(X)
#undef X

  handle_BR:
    pc = d->target;
    RIX_ENTER_BLOCK();

  handle_JSR:
    regs[d->dest] = InstAddr(d - base) + 1; // the link value
    pc = d->target;
    RIX_ENTER_BLOCK();

  handle_JMP:
  handle_RET:
    pc = regs[d->src1];
    RIX_ENTER_BLOCK();

  handle_HALT:
    pc = InstAddr(d - base); // pc freezes at the HALT
    isHalted = true;
    goto done;

  text_fault:
    // The store and the rest of its block were charged but do not run.
    pc = InstAddr(d - base);
    left += d->blockLen;
    raiseTextFault(pc, addr);
    goto done;

  end_of_code:
    pc = n; // ran off an unterminated tail block: into the wilderness

  wilderness: {
        // Out-of-range fetch decodes as NOP: the rest of the budget
        // runs in one addition, unless the pc wraps back to 0 (and so
        // into the code) first.
        const u64 to_wrap = u64(0) - pc;
        if (n == 0 || left < to_wrap) {
            pc += left;
            left = 0;
            goto done;
        }
        left -= to_wrap;
        pc = 0;
    }
    RIX_ENTER_BLOCK();

  budget_tail:
    // The budget ends before this block's terminator, so what is left
    // is straight-line code: step it.
    pcReg = pc;
    icount += max_steps - left;
    for (; left != 0; --left) {
        step();
        if (fault_.faulted)
            break;
    }
    return max_steps - left;

  done:
    pcReg = pc;
    icount += max_steps - left;
    return max_steps - left;

#undef RIX_NEXT
#undef RIX_ENTER_BLOCK
}

} // namespace rix
