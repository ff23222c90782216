#include "workload/randprog.hh"

#include <vector>

#include "assembler/builder.hh"
#include "base/bitutil.hh"
#include "base/log.hh"

namespace rix
{

std::string
validateRandProgConfig(const RandProgConfig &c)
{
    if (c.bodyOpsMin == 0 || c.bodyOpsMin > c.bodyOpsMax)
        return strfmt("body_ops range [%u, %u] is empty or zero",
                      c.bodyOpsMin, c.bodyOpsMax);
    if (c.bodyOpsMax > 100'000)
        return strfmt("body_ops_max %u is unreasonably large "
                      "(max 100000)", c.bodyOpsMax);
    if (c.itersMin == 0 || c.itersMin > c.itersMax)
        return strfmt("iters range [%u, %u] is empty or zero", c.itersMin,
                      c.itersMax);
    if (c.itersMax > 1'000'000)
        return strfmt("iters_max %u is unreasonably large (max 1000000)",
                      c.itersMax);
    if (c.memFootprint < 16 || !isPow2(c.memFootprint))
        return strfmt("mem_footprint must be a power of two >= 16 "
                      "(got %u)", c.memFootprint);
    if (c.memFootprint > (1u << 26))
        return strfmt("mem_footprint %u is unreasonably large "
                      "(max 64 MiB)", c.memFootprint);
    if (c.dataQuads < 8)
        return strfmt("data_quads must be >= 8 (got %u; the spill arm "
                      "writes the first 8 quads)", c.dataQuads);
    if (c.dataQuads > 1'000'000)
        return strfmt("data_quads %u is unreasonably large "
                      "(max 1000000)", c.dataQuads);
    if (c.callDepth > 16)
        return strfmt("call_depth %u too deep (max 16)", c.callDepth);
    if (c.aluOpBias > 8)
        return strfmt("alu_op_bias %u too large (max 8)", c.aluOpBias);
    return "";
}

u64
randProgInstBudget(const RandProgConfig &c)
{
    // Worst case per arm: the call arm runs the whole chain (~12
    // instructions per level), every other arm emits at most 7.
    // Splicing appends a second run of arms to every iteration.
    const u64 perArm = 8 + 12ull * c.callDepth;
    const u64 arms = u64(c.bodyOpsMax) * (c.spliceSeed ? 2 : 1);
    const u64 perIter = 4 + arms * perArm;
    return 64 + u64(c.itersMax) * perIter;
}

Program
generateRandomProgram(u64 seed, const RandProgConfig &cfg)
{
    const std::string verr = validateRandProgConfig(cfg);
    if (!verr.empty())
        rix_fatal("randprog: %s", verr.c_str());

    Rng rng(seed);
    Builder b(strfmt("rand%llu", (unsigned long long)seed));
    b.randomQuads("data", cfg.dataQuads, rng);
    b.space("scratch", cfg.memFootprint);
    // Masking into [0, footprint) keeps every generated address inside
    // the scratch region, 8-aligned.
    const s32 scratchMask = s32(cfg.memFootprint - 8);

    const LogReg regs[] = {1, 2, 3, 4, 5, 6, 7, 8, 16, 17, 22, 23};
    auto regFrom = [&](Rng &r) { return regs[r.below(std::size(regs))]; };

    b.br("main");

    // A chain of functions with proper frames: fn0 calls fn1 calls ...
    // fn(D-1); the body's call arm enters at fn0. Termination is
    // structural — the chain is finite and acyclic.
    for (unsigned d = 0; d < cfg.callDepth; ++d) {
        b.bind(strfmt("fn%u", d));
        b.lda(regSp, -16, regSp);
        b.stq(regRa, 0, regSp);
        const unsigned ops = 1 + unsigned(rng.below(3));
        for (unsigned i = 0; i < ops; ++i)
            b.emit(makeRI(Opcode::ADDQI, 16, 16, s32(rng.range(-9, 9))));
        if (d + 1 < cfg.callDepth)
            b.jsr(strfmt("fn%u", d + 1));
        b.mulqi(0, 16, 3);
        b.ldq(regRa, 0, regSp);
        b.lda(regSp, 16, regSp);
        b.ret();
    }

    b.bind("main");
    // Outer bounded loop: the only back edge, so termination is
    // structural.
    const s32 iters =
        s32(cfg.itersMin + rng.below(cfg.itersMax - cfg.itersMin + 1));
    b.li(14, iters); // s5 = loop counter
    b.li(13, 0);     // s4 = checksum
    b.bind("top");

    // Weighted arm lottery; the knobs are ticket counts.
    enum class Arm : u8
    {
        AluRR, AluRI, Load, Store, Branch, Call, Spill, Checksum
    };
    std::vector<Arm> tickets;
    for (int i = 0; i < 3; ++i)
        tickets.push_back(Arm::AluRR);
    for (int i = 0; i < 3; ++i)
        tickets.push_back(Arm::AluRI);
    for (unsigned i = 0; i < cfg.memWeight; ++i) {
        tickets.push_back(Arm::Load);
        tickets.push_back(Arm::Store);
    }
    for (unsigned i = 0; i < cfg.branchWeight; ++i)
        tickets.push_back(Arm::Branch);
    if (cfg.callDepth > 0)
        tickets.push_back(Arm::Call);
    tickets.push_back(Arm::Spill);
    tickets.push_back(Arm::Checksum);

    // One lottery arm, drawing every random decision from @p r. The
    // main body uses the program rng; splicing replays the same arm
    // machinery against an independent stream, so a spliced program's
    // main body stays bit-identical to the unspliced one.
    auto emitArm = [&](Rng &r) {
        auto reg = [&]() { return regFrom(r); };
        switch (tickets[r.below(tickets.size())]) {
          case Arm::AluRR:
          {
            static const Opcode ops[] = {Opcode::ADDQ, Opcode::SUBQ,
                                         Opcode::AND, Opcode::BIS,
                                         Opcode::XOR, Opcode::CMPLT,
                                         Opcode::MULQ};
            // The bias rotates which opcode a given draw lands on
            // (op substitution) without disturbing the draw stream.
            // The draw stays inside the call expression: hoisting it
            // would reorder it against the reg() draws (argument
            // evaluation order) and change every historical program.
            b.emit(makeRR(ops[(r.below(std::size(ops)) +
                               cfg.aluOpBias) % std::size(ops)],
                          reg(), reg(), reg()));
            break;
          }
          case Arm::AluRI:
          {
            // Dense immediates stress the IT index.
            static const Opcode ops[] = {Opcode::ADDQI, Opcode::SUBQI,
                                         Opcode::ANDI, Opcode::XORI,
                                         Opcode::SLLI, Opcode::SRLI};
            const size_t pick =
                (r.below(std::size(ops)) + cfg.aluOpBias) %
                std::size(ops);
            Opcode op = ops[pick];
            s32 imm = (op == Opcode::SLLI || op == Opcode::SRLI)
                          ? s32(r.below(63))
                          : s32(r.range(-64, 64));
            b.emit(makeRI(op, reg(), reg(), imm));
            break;
          }
          case Arm::Load:
          {
            LogReg addr = reg();
            b.andi(addr, addr, scratchMask);
            b.addqi(addr, addr, s32(b.dataAddr("scratch")));
            b.ldq(reg(), 0, addr);
            break;
          }
          case Arm::Store:
          {
            LogReg addr = reg();
            b.andi(addr, addr, scratchMask);
            b.addqi(addr, addr, s32(b.dataAddr("scratch")));
            b.stq(reg(), 0, addr);
            break;
          }
          case Arm::Branch: // forward data-dependent, reconvergent
          {
            const std::string skip = b.genLabel("skip");
            LogReg c = reg();
            b.andi(c, c, s32(1 + r.below(3)));
            switch (r.below(4)) {
              case 0: b.beq(c, skip); break;
              case 1: b.bne(c, skip); break;
              case 2: b.bgt(c, skip); break;
              default: b.ble(c, skip); break;
            }
            for (unsigned k = 0; k < 1 + r.below(4); ++k)
                b.emit(makeRI(Opcode::ADDQI, reg(), reg(),
                              s32(r.range(-5, 5))));
            b.bind(skip);
            break;
          }
          case Arm::Call:
            b.emit(makeRI(Opcode::ADDQI, 16, 16, 1));
            b.jsr("fn0");
            b.xor_(13, 13, 0);
            break;
          case Arm::Spill: // spill-slot style store+reload via gp
            b.stq(reg(), s32(r.below(8)) * 8, regGp);
            b.ldq(reg(), s32(r.below(8)) * 8, regGp);
            break;
          case Arm::Checksum:
            b.xor_(13, 13, reg());
            break;
        }
    };

    const unsigned body =
        cfg.bodyOpsMin + unsigned(rng.below(cfg.bodyOpsMax -
                                            cfg.bodyOpsMin + 1));
    for (unsigned i = 0; i < body; ++i)
        emitArm(rng);

    if (cfg.spliceSeed != 0) {
        // Body splicing: graft a second run of arms — drawn from the
        // donor stream — onto every iteration, after the native body.
        Rng donor(cfg.spliceSeed);
        const unsigned grafted =
            cfg.bodyOpsMin + unsigned(donor.below(cfg.bodyOpsMax -
                                                  cfg.bodyOpsMin + 1));
        for (unsigned i = 0; i < grafted; ++i)
            emitArm(donor);
    }

    b.subqi(14, 14, 1);
    b.bne(14, "top");
    b.syscall(s32(SyscallCode::Emit), 13);
    b.halt();
    b.entry("main");
    return b.finish();
}

RandProgMutation
mutateRandProg(u64 base_seed, const RandProgConfig &base, u64 mut_seed)
{
    RandProgMutation out{base_seed, base, "reseed"};
    Rng m(mut_seed);
    switch (m.below(7)) {
      case 0: // op substitution: rotate the ALU opcode tables
        out.cfg.aluOpBias = unsigned(1 + m.below(6));
        out.mutator = "op-subst";
        break;
      case 1: // branch-density perturbation
        out.cfg.branchWeight = unsigned(m.below(6));
        out.mutator = "branch-weight";
        break;
      case 2: // memory-density perturbation
        out.cfg.memWeight = unsigned(m.below(6));
        out.mutator = "mem-weight";
        break;
      case 3: // splice a donor body into every iteration
        out.cfg.spliceSeed = m.next() | 1; // any non-zero stream
        out.mutator = "splice";
        break;
      case 4: // scratch-footprint shift (aliasing pressure)
        out.cfg.memFootprint = 64u << m.below(7);
        out.mutator = "footprint";
        break;
      case 5: // call-chain depth shift (RAS / reverse-entry pressure)
        out.cfg.callDepth = unsigned(m.below(5));
        out.mutator = "call-depth";
        break;
      default: // fresh program, same shape
        out.seed = m.next();
        out.mutator = "reseed";
        break;
    }
    return out;
}

} // namespace rix
