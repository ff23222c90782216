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
// The run() fast path: straight-line basic-block execution over the
// decoded form. Handler bodies are generated from the same
// RIX_ALU_SEMANTICS table the out-of-line aluCompute() expands, so
// each opcode's semantics exist exactly once; dispatch is an indirect
// goto through a dense label table under GCC/Clang and a switch
// elsewhere.
// ---------------------------------------------------------------------

#if defined(__GNUC__) || defined(__clang__)
#define RIX_COMPUTED_GOTO 1
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
Emulator::execStraight(const DecodedInst *d, u64 count)
{
    if (count == 0)
        return 0;
    const DecodedInst *const start = d;
    const DecodedInst *const end = d + count;
    (void)end;

#ifdef RIX_COMPUTED_GOTO
    // Dense dispatch table, indexed by DecodedInst::handler (== the
    // opcode value; RIX_OPCODE_LIST is static_asserted to match the
    // enum order).
    static const void *const handlers[numOpcodes] = {
#define X(OP) &&handle_##OP,
        RIX_OPCODE_LIST(X)
#undef X
    };

#define RIX_NEXT() \
    do { \
        if (++d == end) \
            return count; \
        goto *handlers[d->handler]; \
    } while (0)

    goto *handlers[d->handler];

#define X(OP, EXPR) \
  handle_##OP: \
    RIX_ALU_BODY(OP, EXPR) \
    RIX_NEXT();
    RIX_ALU_SEMANTICS(X)
#undef X

  handle_LDQ: {
        const Addr addr = regs[d->src1] + u64(s64(d->imm));
        regs[d->dest] = mem.read(addr, 8);
    }
    RIX_NEXT();

  handle_LDL: {
        const Addr addr = regs[d->src1] + u64(s64(d->imm));
        regs[d->dest] = u64(s64(s32(u32(mem.read(addr, 4)))));
    }
    RIX_NEXT();

  handle_STQ: {
        const Addr addr = regs[d->src1] + u64(s64(d->imm));
        if (addr < textLimit_)
            goto text_fault;
        mem.write(addr, regs[d->src2], 8);
    }
    RIX_NEXT();

  handle_STL: {
        const Addr addr = regs[d->src1] + u64(s64(d->imm));
        if (addr < textLimit_)
            goto text_fault;
        mem.write(addr, regs[d->src2], 4);
    }
    RIX_NEXT();

  handle_SYSCALL:
    if (SyscallCode(d->imm) == SyscallCode::Emit)
        out.push_back(regs[d->src1]);
    regs[d->dest] = 0;
    RIX_NEXT();

  handle_NOP:
    RIX_NEXT();

  // Block terminators can never sit inside the straight-line portion
  // (the DecodedProgram block-length invariant).
  handle_BR:
  handle_BEQ:
  handle_BNE:
  handle_BLT:
  handle_BGE:
  handle_BGT:
  handle_BLE:
  handle_JSR:
  handle_JMP:
  handle_RET:
  handle_HALT:
    rix_panic("decoded dispatch: control opcode %s inside a "
              "straight-line block", opName(Opcode(d->handler)));

  text_fault:
    raiseTextFault(InstAddr(d - dec_->data()),
                   regs[d->src1] + u64(s64(d->imm)));
    return u64(d - start);

#undef RIX_NEXT
#else // switch fallback
    while (d != end) {
        switch (Opcode(d->handler)) {
#define X(OP, EXPR) \
          case Opcode::OP: \
            RIX_ALU_BODY(OP, EXPR) \
            break;
            RIX_ALU_SEMANTICS(X)
#undef X
          case Opcode::LDQ: {
            const Addr addr = regs[d->src1] + u64(s64(d->imm));
            regs[d->dest] = mem.read(addr, 8);
            break;
          }
          case Opcode::LDL: {
            const Addr addr = regs[d->src1] + u64(s64(d->imm));
            regs[d->dest] = u64(s64(s32(u32(mem.read(addr, 4)))));
            break;
          }
          case Opcode::STQ:
          case Opcode::STL: {
            const Addr addr = regs[d->src1] + u64(s64(d->imm));
            if (addr < textLimit_) {
                raiseTextFault(InstAddr(d - dec_->data()), addr);
                return u64(d - start);
            }
            mem.write(addr, regs[d->src2], d->size);
            break;
          }
          case Opcode::SYSCALL:
            if (SyscallCode(d->imm) == SyscallCode::Emit)
                out.push_back(regs[d->src1]);
            regs[d->dest] = 0;
            break;
          case Opcode::NOP:
            break;
          default:
            rix_panic("decoded dispatch: control opcode %s inside a "
                      "straight-line block",
                      opName(Opcode(d->handler)));
        }
        ++d;
    }
    return count;
#endif
}

bool
Emulator::execFull(const DecodedInst &d)
{
    switch (InstClass(d.cls)) {
      case InstClass::Branch: {
        const s64 sa = s64(regs[d.src1]);
        bool taken;
        switch (Opcode(d.handler)) {
#define X(OP, EXPR) \
          case Opcode::OP: taken = (EXPR); break;
            RIX_BRANCH_SEMANTICS(X)
#undef X
          default:
            rix_panic("decoded dispatch: %s is not a conditional branch",
                      opName(Opcode(d.handler)));
        }
        pcReg = taken ? InstAddr(d.target) : pcReg + 1;
        break;
      }
      case InstClass::Jump:
        pcReg = InstAddr(d.target);
        break;
      case InstClass::Call:
        regs[d.dest] = pcReg + 1; // the link value
        pcReg = InstAddr(d.target);
        break;
      case InstClass::IndirectJump:
      case InstClass::Return:
        pcReg = InstAddr(regs[d.src1]);
        break;
      case InstClass::Halt:
        isHalted = true; // pc freezes at the HALT
        break;
      default:
        // The last slot of an unterminated tail block: an ordinary
        // straight-line op, executed through the same dispatch.
        if (execStraight(&d, 1) != 1)
            return false;
        ++pcReg;
        break;
    }
    return true;
}

u64
Emulator::runDecoded(u64 limit)
{
    const DecodedInst *const base = dec_->data();
    const size_t n = dec_->size();
    u64 done = 0;
    while (done < limit && !isHalted) {
        if (pcReg >= n) {
            // Out-of-range fetch decodes as NOP forever, and the
            // 64-bit pc only ever increments out here — it can never
            // wrap back into the code segment. Batch the remaining
            // budget in one addition.
            const u64 k = limit - done;
            pcReg += k;
            done += k;
            break;
        }
        const DecodedInst &d0 = base[pcReg];
        const u64 avail = limit - done;
        u64 straight = d0.blockLen - 1;
        if (straight > avail)
            straight = avail;
        if (straight) {
            const u64 ran = execStraight(&d0, straight);
            pcReg += ran;
            done += ran;
            if (ran != straight)
                break; // text fault inside the block
        }
        if (done < limit) {
            if (!execFull(base[pcReg]))
                break; // text fault at the block end
            ++done;
        }
    }
    icount += done;
    return done;
}

u64
Emulator::run(u64 max_steps)
{
    return fault_.faulted ? 0 : runDecoded(max_steps);
}

} // namespace rix
