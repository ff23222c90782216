#include "sim/simulator.hh"

#include "base/log.hh"
#include "sim/sweep.hh"
#include "trace/profiler.hh"

namespace rix
{

namespace
{

/** Fig-5 style breakdown arrays, exported with self-describing names. */
template <size_t Rows>
void
exportBreakdown(StatSet &out, const char *prefix,
                const char *const (&labels)[Rows],
                const u64 (&cells)[Rows][2])
{
    for (size_t i = 0; i < Rows; ++i) {
        out.set(strfmt("%s_%s_direct", prefix, labels[i]),
                double(cells[i][0]));
        out.set(strfmt("%s_%s_reverse", prefix, labels[i]),
                double(cells[i][1]));
    }
}

} // namespace

void
exportReport(const SimReport &rep, StatSet &out)
{
    rep.core.exportTo(out);

    // Substrate statistics the figure benches never printed.
    out.set("halted", rep.halted ? 1.0 : 0.0);
    out.set("l1d_misses", double(rep.l1dMisses));
    out.set("l1i_misses", double(rep.l1iMisses));
    out.set("l2_misses", double(rep.l2Misses));
    out.set("dtlb_misses", double(rep.dtlbMisses));
    out.set("itlb_misses", double(rep.itlbMisses));

    // Figure 5 breakdowns.
    out.set("retired_sp_loads", double(rep.core.retiredSpLoads));
    static const char *const typeLabels[5] = {"load_sp", "load", "alu",
                                              "branch", "fp"};
    exportBreakdown(out, "integ_type", typeLabels, rep.core.integByType);
    static const char *const distLabels[6] = {"le4",   "le16",   "le64",
                                              "le256", "le1024", "gt1024"};
    exportBreakdown(out, "integ_dist", distLabels, rep.core.integByDistance);
    static const char *const statusLabels[4] = {"rename", "issue", "retire",
                                                "shadow"};
    exportBreakdown(out, "integ_status", statusLabels,
                    rep.core.integByStatus);
    static const char *const refLabels[4] = {"eq1", "le3", "le7", "le15"};
    exportBreakdown(out, "integ_refcount", refLabels,
                    rep.core.integByRefcount);

    // Host-phase profile, only when armed: default reports (and the
    // compare gate's describeDiff) stay byte-for-byte unchanged.
    if (hostProfiler().enabled())
        hostProfiler().exportTo(out);
}

void
requireNoDivergence(const Core &core, const std::string &what)
{
    if (const DivergenceReport *d = core.divergence())
        rix_fatal("%s: %s", what.c_str(), d->format().c_str());
}

SimReport
collectReport(Core &core, const std::string &workload)
{
    SimReport rep;
    rep.workload = workload;
    rep.core = core.stats();
    rep.halted = core.halted();
    rep.l1dMisses = core.memHierarchy().l1d().misses();
    rep.l1iMisses = core.memHierarchy().l1i().misses();
    rep.l2Misses = core.memHierarchy().l2().misses();
    rep.dtlbMisses = core.memHierarchy().dtlb().misses();
    rep.itlbMisses = core.memHierarchy().itlb().misses();
    return rep;
}

SimReport
deltaReport(const SimReport &fin, const SimReport &base)
{
    SimReport d = fin;
    CoreStats::subtract(d.core, base.core);
    d.l1dMisses -= base.l1dMisses;
    d.l1iMisses -= base.l1iMisses;
    d.l2Misses -= base.l2Misses;
    d.dtlbMisses -= base.dtlbMisses;
    d.itlbMisses -= base.itlbMisses;
    return d;
}

void
accumulateReport(SimReport &into, const SimReport &part)
{
    if (into.workload.empty())
        into.workload = part.workload;
    else if (into.workload != part.workload)
        rix_panic("accumulateReport: mixing workloads '%s' and '%s'",
                  into.workload.c_str(), part.workload.c_str());
    CoreStats::accumulate(into.core, part.core);
    into.halted = into.halted || part.halted;
    into.l1dMisses += part.l1dMisses;
    into.l1iMisses += part.l1iMisses;
    into.l2Misses += part.l2Misses;
    into.dtlbMisses += part.dtlbMisses;
    into.itlbMisses += part.itlbMisses;
}

SimReport
runSimulation(const Program &prog, const CoreParams &params,
              u64 max_retired, Cycle max_cycles)
{
    return SimContext().run(prog, params, max_retired, max_cycles);
}

std::string
verifyAgainstEmulator(const Program &prog, const CoreParams &params,
                      u64 max_insts, Cycle max_cycles)
{
    SimContext ctx;
    JobFault fault;
    RunControl ctl;
    ctl.fault = &fault;
    ctx.run(prog, params, max_insts, max_cycles, ctl);
    if (fault.status == JobStatus::Divergence)
        return fault.divergence.format();
    if (fault.status != JobStatus::Ok)
        return fault.message; // stuck: a text fault or the watchdog
    const Core &core = ctx.core();
    if (!core.halted())
        return strfmt("core did not halt within %llu insts / %llu cycles "
                      "(retired %llu)",
                      (unsigned long long)max_insts,
                      (unsigned long long)max_cycles,
                      (unsigned long long)core.stats().retired);

    Emulator emu(prog);
    emu.run(max_insts + 1);
    if (emu.faulted())
        return emu.fault().describe();
    if (!emu.halted())
        return "emulator did not halt";

    if (core.stats().retired != emu.instsExecuted())
        return strfmt("retired count mismatch: core %llu vs emu %llu",
                      (unsigned long long)core.stats().retired,
                      (unsigned long long)emu.instsExecuted());

    for (unsigned r = 0; r < numLogRegs; ++r) {
        if (core.golden().reg(LogReg(r)) != emu.reg(LogReg(r)))
            return strfmt("register r%u mismatch: core %llu vs emu %llu",
                          r,
                          (unsigned long long)core.golden().reg(LogReg(r)),
                          (unsigned long long)emu.reg(LogReg(r)));
    }

    if (core.golden().output() != emu.output())
        return "program output mismatch";

    if (!core.golden().memory().contentEquals(emu.memory()))
        return "final memory image mismatch";

    return "";
}

} // namespace rix
