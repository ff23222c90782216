/**
 * @file
 * Pre-decoded program form: the single source of truth for instruction
 * semantics and static metadata.
 *
 * Every static instruction is decoded exactly once — when a Program's
 * DecodedProgram is built — into a fixed-layout DecodedInst: a dense
 * handler index for threaded dispatch, pre-resolved operand registers
 * (the zero register substituted for unused sources, a write sink for
 * absent destinations), the immediate, the resolved control-flow
 * target, per-class issue metadata for the detailed pipeline, and the
 * length of the straight-line basic block starting at that pc. The
 * emulator's fast run loop, its preview/commit (DIVA) path, and the
 * detailed pipeline's rename/issue/execute stages all consume this one
 * form; nothing outside this layer re-derives operands or re-decodes
 * raw instruction words.
 *
 * Opcode semantics live here too, as X-macro tables
 * (RIX_ALU_SEMANTICS / RIX_BRANCH_SEMANTICS) expanded by both the
 * out-of-line aluCompute()/branchTaken() used by the detailed pipeline
 * and the emulator's per-opcode dispatch handlers — one definition per
 * opcode, several specialized expansions.
 *
 * The 64-bit machine encoding (encode()/decode(), formerly
 * isa/encoding.{hh,cc}) is folded in as well: it is the only code in
 * the tree that touches raw instruction words.
 */

#ifndef RIX_ISA_DECODED_HH
#define RIX_ISA_DECODED_HH

#include <vector>

#include "isa/inst.hh"

namespace rix
{

struct Program;

/** Bytes one instruction slot occupies in the fetch address space
 *  (pc * instructionBytes is the i-cache byte address; the byte range
 *  [0, codeSize * instructionBytes) is the immutable text segment). */
constexpr unsigned instructionBytes = 8;

/**
 * Register-file slot used as the write target of instructions with no
 * architectural destination (and of writes to the hard-wired zero
 * register): dispatch handlers can then write their result
 * unconditionally. The emulator's register array has numLogRegs + 1
 * entries; the sink is the extra one and is never read, snapshotted or
 * compared.
 */
constexpr unsigned emuRegSink = numLogRegs;

/** Issue-port class of an instruction (the detailed core's port mix:
 *  2 simple-int, 2 FP/complex, 1 load, 1 store). */
enum class IssuePort : u8 { Simple, Complex, LoadP, StoreP };

/** DecodedInst::flags bits. */
enum : u16
{
    DFlagWritesReg = 1 << 0, // writes an architectural register (not r31)
    DFlagLoad      = 1 << 1,
    DFlagStore     = 1 << 2,
    DFlagCtrl      = 1 << 3, // can redirect the pc
    DFlagEndsBlock = 1 << 4, // control or HALT: basic-block terminator
    DFlagPriority  = 1 << 5, // issue-priority class (loads/branches/FP)
    DFlagNeedsRs   = 1 << 6, // occupies a reservation station
    DFlagReadsRa   = 1 << 7,
    DFlagReadsRb   = 1 << 8,
};

/**
 * One pre-decoded instruction. Fixed 32-byte layout; the first 20
 * bytes (through blockLen) are everything the emulator's run loop
 * touches.
 */
struct DecodedInst
{
    u8 handler = u8(Opcode::NOP); // dense dispatch index == opcode value
    u8 src1 = regZero;  // resolved first source (regZero when unused)
    u8 src2 = regZero;  // resolved second source (regZero when unused)
    u8 dest = emuRegSink; // resolved destination (sink when none)
    u8 size = 0;        // memory access bytes (loads/stores only)
    u8 cls = 0;         // InstClass
    u8 port = 0;        // IssuePort
    u8 pad_ = 0;
    s32 imm = 0;
    u32 target = 0;     // resolved branch/jump/call target slot
    u32 blockLen = 1;   // insts from this pc through its block terminator
    u16 flags = 0;
    u16 latency = 1;    // execute latency in cycles
    Instruction inst;   // the original static instruction (8 bytes)

    bool writesReg() const { return flags & DFlagWritesReg; }
    bool isLoad() const { return flags & DFlagLoad; }
    bool isStore() const { return flags & DFlagStore; }
    bool isMem() const { return flags & (DFlagLoad | DFlagStore); }
    bool isCtrl() const { return flags & DFlagCtrl; }
    bool endsBlock() const { return flags & DFlagEndsBlock; }
    bool priority() const { return flags & DFlagPriority; }
    bool needsRs() const { return flags & DFlagNeedsRs; }
    bool readsRa() const { return flags & DFlagReadsRa; }
    bool readsRb() const { return flags & DFlagReadsRb; }
    InstClass instClass() const { return InstClass(cls); }
    IssuePort issuePort() const { return IssuePort(port); }
};

static_assert(sizeof(DecodedInst) == 32,
              "DecodedInst must stay a fixed 32-byte record");

/** Decode one static instruction (no block-length information). */
DecodedInst decodeInst(const Instruction &inst);

/** DecodedInst::handler of the end-of-code sentinel (one past the
 *  last opcode; see DecodedProgram). */
constexpr u8 endOfCodeHandler = u8(numOpcodes);

/**
 * A Program's code segment decoded once, shared read-only by every
 * emulator and core bound to that program. Two invariants serve the
 * emulator's threaded run loop, which charges a whole block against
 * its budget on entry and then dispatches without per-instruction
 * checks:
 *  - blockLen is exact per pc: for every pc, the blockLen - 1
 *    instructions before the block terminator are neither control
 *    instructions nor HALT (a branch into the middle of a block sees
 *    the correctly shortened remainder);
 *  - data()[size()] is a sentinel whose handler is endOfCodeHandler,
 *    so a dispatch that runs off the end of an unterminated tail
 *    block lands on it instead of reading past the code.
 */
class DecodedProgram
{
  public:
    explicit DecodedProgram(const Program &prog);

    size_t size() const { return insts.size() - 1; }
    const DecodedInst *data() const { return insts.data(); }
    const DecodedInst &at(InstAddr pc) const { return insts[pc]; }

    /** Out-of-range PCs decode as NOPs (wrong-path safe), mirroring
     *  Program::fetch(). */
    const DecodedInst &
    fetch(InstAddr pc) const
    {
        return pc < size() ? insts[pc] : nopSentinel();
    }

    /** First byte address past the text segment: stores below this
     *  land in the program image (the immutable-text fault). */
    Addr textLimit() const { return textLimit_; }

    /** Heap footprint, for cache byte accounting. */
    size_t
    bytes() const
    {
        return sizeof(DecodedProgram) +
               insts.capacity() * sizeof(DecodedInst);
    }

    /** The shared decoded NOP every out-of-range fetch returns. */
    static const DecodedInst &nopSentinel();

  private:
    std::vector<DecodedInst> insts; // the code, then the end sentinel
    Addr textLimit_ = 0;
};

// ---------------------------------------------------------------------
// Opcode semantics: defined exactly once, as X-macro tables.
//
// Each RIX_ALU_SEMANTICS entry is (OPCODE, result-expression) over
//   a, b     the u64 source values (src1/src2; zero when unused),
//   sa, sb   their signed views,
//   imm      the signed immediate.
// Expanded by aluCompute() (detailed pipeline, integration oracle,
// DIVA preview) and by the emulator's per-opcode dispatch
// handlers. RIX_BRANCH_SEMANTICS entries are (OPCODE, taken-predicate)
// over sa.
// ---------------------------------------------------------------------

namespace detail
{

/** Signed division with the ISA's quotient conventions: divide by
 *  zero yields 0, INT64_MIN / -1 yields the dividend. */
inline u64
divToZero(s64 sa, s64 sb)
{
    if (sb == 0)
        return 0;
    if (sa == INT64_MIN && sb == -1)
        return u64(sa);
    return u64(sa / sb);
}

/** FDIV's fixed-point datapath substitute (8.8 scaling), same guard
 *  conventions as divToZero. */
inline u64
fixDiv(s64 sa, s64 sb)
{
    if (sb == 0)
        return 0;
    if (sa == INT64_MIN && sb == -1)
        return u64(sa);
    // Shift as unsigned: a left shift of a negative value is undefined.
    return u64(s64(u64(sa) << 8) / sb);
}

} // namespace detail

#define RIX_ALU_SEMANTICS(X) \
    X(ADDQ,   a + b) \
    X(SUBQ,   a - b) \
    X(AND,    a & b) \
    X(BIS,    a | b) \
    X(XOR,    a ^ b) \
    X(SLL,    a << (b & 63)) \
    X(SRL,    a >> (b & 63)) \
    X(SRA,    u64(sa >> (b & 63))) \
    X(CMPEQ,  u64(a == b)) \
    X(CMPLT,  u64(sa < sb)) \
    X(CMPLE,  u64(sa <= sb)) \
    X(ADDQI,  a + u64(imm)) \
    X(SUBQI,  a - u64(imm)) \
    X(ANDI,   a & u64(imm)) \
    X(BISI,   a | u64(imm)) \
    X(XORI,   a ^ u64(imm)) \
    X(SLLI,   a << (imm & 63)) \
    X(SRLI,   a >> (imm & 63)) \
    X(SRAI,   u64(sa >> (imm & 63))) \
    X(CMPEQI, u64(sa == imm)) \
    X(CMPLTI, u64(sa < imm)) \
    X(CMPLEI, u64(sa <= imm)) \
    X(LDA,    a + u64(imm)) \
    X(MULQ,   a * b) \
    X(MULQI,  a * u64(imm)) \
    X(DIVQ,   detail::divToZero(sa, sb)) \
    X(FADD,   a + b) \
    X(FMUL,   u64((sa * sb) >> 8)) \
    X(FDIV,   detail::fixDiv(sa, sb))

#define RIX_BRANCH_SEMANTICS(X) \
    X(BEQ, sa == 0) \
    X(BNE, sa != 0) \
    X(BLT, sa < 0) \
    X(BGE, sa >= 0) \
    X(BGT, sa > 0) \
    X(BLE, sa <= 0)

/**
 * Every opcode, in enum order — the dispatch-table generator. The
 * static_asserts below guarantee the list and the Opcode enum agree,
 * so a table built by expanding this macro is indexable directly by
 * DecodedInst::handler.
 */
#define RIX_OPCODE_LIST(X) \
    X(ADDQ) X(SUBQ) X(AND) X(BIS) X(XOR) X(SLL) X(SRL) X(SRA) \
    X(CMPEQ) X(CMPLT) X(CMPLE) \
    X(ADDQI) X(SUBQI) X(ANDI) X(BISI) X(XORI) X(SLLI) X(SRLI) X(SRAI) \
    X(CMPEQI) X(CMPLTI) X(CMPLEI) \
    X(LDA) X(MULQ) X(MULQI) X(DIVQ) \
    X(FADD) X(FMUL) X(FDIV) \
    X(LDQ) X(LDL) X(STQ) X(STL) \
    X(BR) X(BEQ) X(BNE) X(BLT) X(BGE) X(BGT) X(BLE) \
    X(JSR) X(JMP) X(RET) \
    X(SYSCALL) X(NOP) X(HALT)

namespace detail
{

constexpr Opcode opcodeListOrder[] = {
#define X(OP) Opcode::OP,
    RIX_OPCODE_LIST(X)
#undef X
};

constexpr bool
opcodeListDense()
{
    for (unsigned i = 0; i < numOpcodes; ++i)
        if (unsigned(opcodeListOrder[i]) != i)
            return false;
    return true;
}

static_assert(sizeof(opcodeListOrder) / sizeof(opcodeListOrder[0]) ==
                  numOpcodes,
              "RIX_OPCODE_LIST must name every opcode exactly once");
static_assert(opcodeListDense(),
              "RIX_OPCODE_LIST must match the Opcode enum order");

} // namespace detail

/** Pure ALU function: computes an instruction's result value.
 *
 * @param inst the instruction (must have a destination or be a store)
 * @param a    value of src1 (ra), zero if unused
 * @param b    value of src2 (rb), zero if unused
 * @return destination value (for stores: the store data, i.e. b)
 */
u64 aluCompute(const Instruction &inst, u64 a, u64 b);

/** Branch condition evaluation for conditional branches. */
bool branchTaken(const Instruction &inst, u64 a);

/** Fix up a raw little-endian memory read into the architectural load
 *  result (LDL sign-extends; everything else passes through). */
inline u64
loadValue(Opcode op, u64 raw)
{
    return op == Opcode::LDL ? u64(s64(s32(u32(raw)))) : raw;
}

// ---------------------------------------------------------------------
// 64-bit machine encoding (folded in from isa/encoding.{hh,cc}).
//
// Layout (EV6-like fixed width, widened to hold 32-bit immediates):
//
//   [63:56] opcode   [55:51] ra   [50:46] rb   [45:41] rc
//   [40:32] reserved (zero)       [31:0]  immediate (two's complement)
//
// Round-trips losslessly with decode(); used by the assembler's binary
// output path and by encode/decode conformance tests. decode() is the
// only function in the tree that parses a raw instruction word.
// ---------------------------------------------------------------------

/** Pack an instruction into its 64-bit machine word. */
u64 encode(const Instruction &inst);

/**
 * Unpack a machine word.
 * @param word the encoded instruction
 * @param ok   set false when the opcode field is invalid
 */
Instruction decode(u64 word, bool *ok = nullptr);

} // namespace rix

#endif // RIX_ISA_DECODED_HH
