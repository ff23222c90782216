#include "isa/decoded.hh"

#include "assembler/program.hh"
#include "base/bitutil.hh"
#include "base/log.hh"

namespace rix
{

namespace
{

IssuePort
portOfClass(InstClass cls)
{
    switch (cls) {
      case InstClass::ComplexInt:
      case InstClass::FloatOp:
        return IssuePort::Complex;
      case InstClass::Load:
        return IssuePort::LoadP;
      case InstClass::Store:
        return IssuePort::StoreP;
      default:
        return IssuePort::Simple; // ALU, branches, returns, indirect jumps
    }
}

bool
priorityClassOf(InstClass cls)
{
    switch (cls) {
      case InstClass::Load:
      case InstClass::Branch:
      case InstClass::IndirectJump:
      case InstClass::Return:
      case InstClass::FloatOp:
        return true;
      default:
        return false;
    }
}

/** Does this class occupy a reservation station? Direct jumps and
 *  calls execute for free at decode; nops, halts and syscalls never
 *  enter the window. */
bool
needsRsOf(InstClass cls)
{
    switch (cls) {
      case InstClass::SimpleInt:
      case InstClass::ComplexInt:
      case InstClass::FloatOp:
      case InstClass::Load:
      case InstClass::Store:
      case InstClass::Branch:
      case InstClass::IndirectJump:
      case InstClass::Return:
        return true;
      default:
        return false;
    }
}

bool
isControlClass(InstClass cls)
{
    switch (cls) {
      case InstClass::Branch:
      case InstClass::Jump:
      case InstClass::IndirectJump:
      case InstClass::Call:
      case InstClass::Return:
        return true;
      default:
        return false;
    }
}

} // namespace

DecodedInst
decodeInst(const Instruction &inst)
{
    const OpTraits &t = opTraits(inst.op);
    DecodedInst d;
    d.inst = inst;
    d.handler = u8(inst.op);
    d.src1 = t.readsRa ? inst.ra : regZero;
    d.src2 = t.readsRb ? inst.rb : regZero;
    d.dest = (t.hasDest && inst.rc != regZero) ? inst.rc : u8(emuRegSink);
    d.imm = inst.imm;
    d.cls = u8(t.cls);
    d.port = u8(portOfClass(t.cls));
    d.latency = t.latency;
    d.size = 0;
    d.target = 0;
    d.blockLen = 1;

    u16 flags = 0;
    if (t.hasDest && inst.rc != regZero)
        flags |= DFlagWritesReg;
    if (t.readsRa)
        flags |= DFlagReadsRa;
    if (t.readsRb)
        flags |= DFlagReadsRb;
    if (priorityClassOf(t.cls))
        flags |= DFlagPriority;
    if (needsRsOf(t.cls))
        flags |= DFlagNeedsRs;
    if (isControlClass(t.cls))
        flags |= DFlagCtrl;
    if (isControlClass(t.cls) || t.cls == InstClass::Halt)
        flags |= DFlagEndsBlock;

    switch (t.cls) {
      case InstClass::Load:
        flags |= DFlagLoad;
        d.size = u8(memAccessSize(inst.op));
        break;
      case InstClass::Store:
        flags |= DFlagStore;
        d.size = u8(memAccessSize(inst.op));
        break;
      case InstClass::Branch:
      case InstClass::Jump:
      case InstClass::Call:
        d.target = u32(inst.imm);
        break;
      default:
        break;
    }
    d.flags = flags;
    return d;
}

DecodedProgram::DecodedProgram(const Program &prog)
{
    const size_t n = prog.code.size();
    insts.resize(n + 1);
    textLimit_ = Addr(n) * instructionBytes;
    for (size_t i = 0; i < n; ++i)
        insts[i] = decodeInst(prog.code[i]);
    insts[n].handler = endOfCodeHandler;

    // Block lengths, computed backward: a terminator (or the last slot
    // of an unterminated tail) is a 1-instruction block; every other
    // slot extends the block starting right after it. Each pc carries
    // the length of the block *starting there*, so a branch into the
    // middle of a block sees exactly its straight-line remainder.
    for (size_t i = n; i-- > 0;) {
        if (!insts[i].endsBlock() && i + 1 < n)
            insts[i].blockLen = insts[i + 1].blockLen + 1;
    }
}

const DecodedInst &
DecodedProgram::nopSentinel()
{
    static const DecodedInst nop = decodeInst(makeNop());
    return nop;
}

u64
aluCompute(const Instruction &inst, u64 a, u64 b)
{
    const s64 sa = s64(a);
    const s64 sb = s64(b);
    const s64 imm = inst.imm;
    (void)sb;
    (void)imm;
    switch (inst.op) {
#define X(OP, EXPR) \
      case Opcode::OP: return EXPR;
        RIX_ALU_SEMANTICS(X)
#undef X
      case Opcode::JSR: return 0; // link value is PC-relative, set by caller
      case Opcode::SYSCALL: return 0;
      default:
        rix_panic("aluCompute: %s has no ALU function",
                  opName(inst.op));
    }
}

bool
branchTaken(const Instruction &inst, u64 a)
{
    const s64 sa = s64(a);
    switch (inst.op) {
#define X(OP, EXPR) \
      case Opcode::OP: return EXPR;
        RIX_BRANCH_SEMANTICS(X)
#undef X
      default:
        rix_panic("branchTaken: %s is not a conditional branch",
                  opName(inst.op));
    }
}

u64
encode(const Instruction &inst)
{
    u64 w = 0;
    w |= (u64(inst.op) & mask(8)) << 56;
    w |= (u64(inst.ra) & mask(5)) << 51;
    w |= (u64(inst.rb) & mask(5)) << 46;
    w |= (u64(inst.rc) & mask(5)) << 41;
    w |= u64(u32(inst.imm));
    return w;
}

Instruction
decode(u64 word, bool *ok)
{
    Instruction inst;
    const u64 opfield = bits(word, 63, 56);
    const bool valid = opfield < numOpcodes;
    if (ok)
        *ok = valid;
    if (!valid)
        return makeNop();
    inst.op = Opcode(opfield);
    inst.ra = LogReg(bits(word, 55, 51));
    inst.rb = LogReg(bits(word, 50, 46));
    inst.rc = LogReg(bits(word, 45, 41));
    inst.imm = s32(u32(bits(word, 31, 0)));
    return inst;
}

} // namespace rix
