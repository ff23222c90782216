#include "cpu/divergence.hh"

#include "base/log.hh"
#include "cpu/core.hh"

namespace rix
{

std::string
formatArchState(const Emulator &e)
{
    std::string out = strfmt("  pc=%llu icount=%llu halted=%d\n",
                             (unsigned long long)e.pc(),
                             (unsigned long long)e.instsExecuted(),
                             e.halted() ? 1 : 0);
    for (unsigned r = 0; r < numLogRegs; r += 4) {
        out += " ";
        for (unsigned i = r; i < r + 4; ++i)
            out += strfmt(" r%-2u=%016llx", i,
                          (unsigned long long)e.reg(LogReg(i)));
        out += "\n";
    }
    return out;
}

std::string
DivergenceReport::format() const
{
    if (!diverged)
        return "no divergence";
    std::string out;
    out += strfmt("DIVA divergence (%s) at instruction %llu, pc %llu\n",
                  kind.c_str(), (unsigned long long)icount,
                  (unsigned long long)pc);
    out += "  inst:   " + disasm + "\n";
    out += "  reason: " + reason + "\n";
    out += "golden (committed) architectural state:\n" + goldenState;
    return out;
}

void
Core::stopDiverged(const DynInst &di, const char *kind, std::string reason)
{
    divergence_.diverged = true;
    divergence_.kind = kind;
    divergence_.icount = golden_.instsExecuted();
    divergence_.pc = di.pc;
    divergence_.disasm = disassemble(di.inst);
    divergence_.reason = std::move(reason);
    divergence_.goldenState = formatArchState(golden_);
    done = true;
}

void
Core::recordStreamMismatch(const DynInst &di)
{
    stopDiverged(di, "pc-stream",
                 strfmt("pipeline retires pc %llu but the architectural "
                        "stream is at pc %llu",
                        (unsigned long long)di.pc,
                        (unsigned long long)golden_.pc()));
}

void
Core::recordValueMismatch(const DynInst &di, const StepResult &expected)
{
    // Re-run the DIVA comparisons to name exactly what mismatched.
    const u64 pipe_dest = di.hasDest ? pregValue[di.pdest] : 0;
    std::string why;
    if (di.hasDest && pipe_dest != expected.destValue)
        why = strfmt("destination value %016llx, architecturally %016llx",
                     (unsigned long long)pipe_dest,
                     (unsigned long long)expected.destValue);
    else if (di.isStore() && di.effAddr != expected.memAddr)
        why = strfmt("store address %llx, architecturally %llx",
                     (unsigned long long)di.effAddr,
                     (unsigned long long)expected.memAddr);
    else if (di.isStore() && di.storeData != expected.destValue)
        why = strfmt("store data %016llx, architecturally %016llx",
                     (unsigned long long)di.storeData,
                     (unsigned long long)expected.destValue);
    else if (di.isLoad() && di.effAddr != expected.memAddr)
        why = strfmt("load address %llx, architecturally %llx",
                     (unsigned long long)di.effAddr,
                     (unsigned long long)expected.memAddr);
    else if (di.isCtrl && di.actualNextPc() != expected.nextPc)
        why = strfmt("next pc %llu, architecturally %llu",
                     (unsigned long long)di.actualNextPc(),
                     (unsigned long long)expected.nextPc);
    else
        why = "DIVA mismatch (unclassified)";
    stopDiverged(di, "value", "pipeline produced " + why);
}

} // namespace rix
