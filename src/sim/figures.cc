#include "sim/figures.hh"

#include <array>
#include <map>
#include <vector>

#include "base/log.hh"
#include "base/stats.hh"
#include "cpu/core_stats.hh"

namespace rix
{

namespace
{

// The config labels each figure reads, spelled once: figureConfigLabels
// lists them for parseScenario and the renderers look them up by the
// same names. Fig. 5 reads the baseline +reverse machine; the others
// also read "base" (no integration) and "<row>/<column>" cells.
const char *const kFig4Modes[4] = {"squash", "general", "opcode",
                                   "reverse"};
const char *const kRealOrac[2] = {"real", "orac"};
const char *const kFig5Config = "reverse";
const char *const kFig6Assoc[4] = {"a1", "a2", "a4", "afull"};
const char *const kFig6Size[5] = {"s64", "s256", "s1024", "s4096",
                                  "s4096g8"};
const char *const kFig7Machines[4] = {"base", "RS", "IW", "IW+RS"};
const char *const kFig7Lisp[3] = {"noint", "real", "orac"};

std::string
cellLabel(const char *row, const char *col)
{
    return std::string(row) + "/" + col;
}

/** Config index by label; fatal naming the missing label. */
size_t
needConfig(const ScenarioSpec &spec, const std::string &label)
{
    const int i = spec.configIndex(label);
    if (i < 0)
        rix_fatal("render=%s requires a config labeled '%s' (scenario "
                  "'%s' does not define it)",
                  spec.render.c_str(), label.c_str(), spec.name.c_str());
    return size_t(i);
}

void
printTableHeader(FILE *out, const char *title)
{
    fprintf(out, "\n==== %s ====\n", title);
}

void
printTableRowLabel(FILE *out, const std::string &name)
{
    fprintf(out, "%-8s", name.c_str());
}

} // namespace

std::vector<std::string>
figureConfigLabels(const std::string &render)
{
    std::vector<std::string> labels;
    const auto cells = [&labels](const char *const *rows, size_t nrows,
                                 const char *const *cols, size_t ncols) {
        for (size_t r = 0; r < nrows; ++r)
            for (size_t c = 0; c < ncols; ++c)
                labels.push_back(cellLabel(rows[r], cols[c]));
    };
    if (render == "fig4") {
        labels.push_back("base");
        cells(kFig4Modes, 4, kRealOrac, 2);
    } else if (render == "fig5") {
        labels.push_back(kFig5Config);
    } else if (render == "fig6") {
        labels.push_back("base");
        cells(kFig6Assoc, 4, kRealOrac, 2);
        cells(kFig6Size, 5, kRealOrac, 2);
    } else if (render == "fig7") {
        labels.push_back("base");
        cells(kFig7Machines, 4, kFig7Lisp, 3);
    }
    return labels;
}

// ---- Figure 4 -------------------------------------------------------

void
renderFig4(const ScenarioSpec &spec, const ScenarioResults &res, FILE *out)
{
    const std::vector<std::string> &benches = spec.workloads;
    const IntegrationMode modes[4] = {
        IntegrationMode::Squash, IntegrationMode::General,
        IntegrationMode::OpcodeIndexed, IntegrationMode::Reverse};

    const size_t baseCfg = needConfig(spec, "base");
    size_t cellCfg[4][2];
    for (int m = 0; m < 4; ++m)
        for (int l = 0; l < 2; ++l)
            cellCfg[m][l] =
                needConfig(spec, cellLabel(kFig4Modes[m], kRealOrac[l]));

    struct Cell
    {
        double speedup[2]; // [realistic, oracle]
        double rateDirect;
        double rateReverse;
        double misintPerM;
    };

    std::map<std::string, SimReport> base;
    std::map<std::string, std::array<Cell, 4>> cells;
    std::map<std::string, SimReport> reverseReal;
    for (size_t w = 0; w < benches.size(); ++w) {
        const std::string &bm = benches[w];
        base[bm] = res.report(w, baseCfg);
        for (int m = 0; m < 4; ++m) {
            Cell c{};
            for (int l = 0; l < 2; ++l) {
                const SimReport &r = res.report(w, cellCfg[m][l]);
                c.speedup[l] = speedupPct(base[bm].ipc(), r.ipc());
                if (l == 0) {
                    c.rateDirect = 100.0 * r.core.integratedDirect /
                                   double(r.core.retired);
                    c.rateReverse = 100.0 * r.core.integratedReverse /
                                    double(r.core.retired);
                    c.misintPerM = r.core.misintPerMillion();
                    if (modes[m] == IntegrationMode::Reverse)
                        reverseReal[bm] = r;
                }
            }
            cells[bm][m] = c;
        }
    }

    printTableHeader(out, "Figure 4 (top): speedup % vs no-integration baseline");
    fprintf(out, "%-8s |", "bench");
    for (int m = 0; m < 4; ++m)
        fprintf(out, " %9s(real/orac) |", integrationModeName(modes[m]));
    fprintf(out, "\n");
    std::vector<double> gm[4][2];
    for (const auto &bm : benches) {
        printTableRowLabel(out, bm);
        fprintf(out, " |");
        for (int m = 0; m < 4; ++m) {
            const Cell &c = cells[bm][m];
            fprintf(out, "     %6.2f /%6.2f    |", c.speedup[0],
                    c.speedup[1]);
            gm[m][0].push_back(c.speedup[0]);
            gm[m][1].push_back(c.speedup[1]);
        }
        fprintf(out, "\n");
    }
    printTableRowLabel(out, "GMean");
    fprintf(out, " |");
    for (int m = 0; m < 4; ++m)
        fprintf(out, "     %6.2f /%6.2f    |", gmeanSpeedupPct(gm[m][0]),
                gmeanSpeedupPct(gm[m][1]));
    fprintf(out, "\n");

    printTableHeader(out, "Figure 4 (bottom): integration rate % "
                     "(direct+reverse) and mis-integrations per 1M retired");
    fprintf(out, "%-8s |", "bench");
    for (int m = 0; m < 4; ++m)
        fprintf(out, " %8s d+r (mi/M) |", integrationModeName(modes[m]));
    fprintf(out, "\n");
    double am[4][3] = {};
    for (const auto &bm : benches) {
        printTableRowLabel(out, bm);
        fprintf(out, " |");
        for (int m = 0; m < 4; ++m) {
            const Cell &c = cells[bm][m];
            fprintf(out, " %5.1f+%4.1f (%6.0f) |", c.rateDirect,
                    c.rateReverse, c.misintPerM);
            am[m][0] += c.rateDirect;
            am[m][1] += c.rateReverse;
            am[m][2] += c.misintPerM;
        }
        fprintf(out, "\n");
    }
    printTableRowLabel(out, "AMean");
    fprintf(out, " |");
    for (int m = 0; m < 4; ++m)
        fprintf(out, " %5.1f+%4.1f (%6.0f) |", am[m][0] / benches.size(),
                am[m][1] / benches.size(), am[m][2] / benches.size());
    fprintf(out, "\n");

    printTableHeader(out, "Section 3.2 diagnostics (base vs +reverse, realistic)");
    fprintf(out, "%-8s %14s %14s %14s %14s\n", "bench", "resolve(base)",
            "resolve(+rev)", "fetched-delta%", "rate%");
    double rl0 = 0, rl1 = 0, fd = 0;
    for (const auto &bm : benches) {
        const SimReport &b = base[bm];
        const SimReport &r = reverseReal[bm];
        const double fdelta =
            100.0 * (double(r.core.fetched) - double(b.core.fetched)) /
            double(b.core.fetched);
        fprintf(out, "%-8s %14.1f %14.1f %14.2f %14.1f\n", bm.c_str(),
                b.core.avgMispredResolveLat(),
                r.core.avgMispredResolveLat(), fdelta,
                100.0 * r.core.integrationRate());
        rl0 += b.core.avgMispredResolveLat();
        rl1 += r.core.avgMispredResolveLat();
        fd += fdelta;
    }
    fprintf(out, "%-8s %14.1f %14.1f %14.2f\n", "AMean",
            rl0 / benches.size(), rl1 / benches.size(),
            fd / benches.size());

    fprintf(out,
            "\nPaper reference: integration rate 2%% -> 10%% -> 12.3%% -> "
            "17%% across the four configurations; mean speedup 8%% "
            "(+reverse, realistic), 9%% oracle; mispredict resolution "
            "26 -> 23.5 cycles; fetched instructions -0.6%%.\n");
}

// ---- Figure 5 -------------------------------------------------------

namespace
{

template <size_t Rows>
void
printBreakdown(FILE *out, const char *title,
               const std::vector<std::string> &benches,
               const std::map<std::string, SimReport> &reports,
               const std::vector<const char *> &labels,
               u64 (CoreStats::*field)[Rows][2])
{
    const size_t rows = Rows;
    printTableHeader(out, title);
    fprintf(out, "%-11s", "");
    for (const auto &bm : benches)
        fprintf(out, " %11s", bm.c_str());
    fprintf(out, "\n%-11s", "rate%");
    for (const auto &bm : benches)
        fprintf(out, " %11.1f",
                100.0 * reports.at(bm).core.integrationRate());
    fprintf(out, "\n");
    for (size_t i = 0; i < rows; ++i) {
        fprintf(out, "%-11s", labels[i]);
        for (const auto &bm : benches) {
            const CoreStats &s = reports.at(bm).core;
            const double total = double(s.integrated());
            const u64 *cat = (s.*field)[i];
            const double d = total ? 100.0 * cat[0] / total : 0.0;
            const double r = total ? 100.0 * cat[1] / total : 0.0;
            fprintf(out, " %5.1f/%5.1f", d, r);
        }
        fprintf(out, "\n");
    }
}

} // namespace

void
renderFig5(const ScenarioSpec &spec, const ScenarioResults &res, FILE *out)
{
    const std::vector<std::string> &benches = spec.workloads;
    const size_t cfg = needConfig(spec, kFig5Config);

    std::map<std::string, SimReport> reports;
    for (size_t w = 0; w < benches.size(); ++w)
        reports[benches[w]] = res.report(w, cfg);

    fprintf(out,
            "All cells: percent of the benchmark's integration stream,\n"
            "direct/reverse (the paper's solid/striped split).\n");

    printBreakdown(out, "Figure 5 Type (load-sp / load / ALU / branch / FP)",
                   benches, reports,
                   {"load-sp", "load", "ALU", "branch", "FP"},
                   &CoreStats::integByType);

    printBreakdown(out, "Figure 5 Distance (renamed insts creator->user)",
                   benches, reports,
                   {"<=4", "<=16", "<=64", "<=256", "<=1024", ">1024"},
                   &CoreStats::integByDistance);

    printBreakdown(out, "Figure 5 Status at integration", benches, reports,
                   {"rename", "issue", "retire", "shadow/sq"},
                   &CoreStats::integByStatus);

    printBreakdown(out, "Figure 5 Refcount after integration", benches,
                   reports, {"==1", "<=3", "<=7", "<=15"},
                   &CoreStats::integByRefcount);

    // Per-type integration coverage (paper: loads integrate at 27%,
    // stack loads at 60%).
    printTableHeader(out, "Type coverage: integrated / retired within class");
    fprintf(out, "%-11s %10s %10s\n", "bench", "loads%", "sp-loads%");
    for (const auto &bm : benches) {
        const CoreStats &s = reports.at(bm).core;
        const u64 ld = s.integByType[0][0] + s.integByType[0][1] +
                       s.integByType[1][0] + s.integByType[1][1];
        const u64 sp = s.integByType[0][0] + s.integByType[0][1];
        fprintf(out, "%-11s %10.1f %10.1f\n", bm.c_str(),
                s.retiredLoads ? 100.0 * ld / s.retiredLoads : 0.0,
                s.retiredSpLoads ? 100.0 * sp / s.retiredSpLoads : 0.0);
    }

    fprintf(out,
            "\nPaper reference: fewer than 10%% of integrations within 4\n"
            "instructions and fewer than 20%% within 16 (integration is\n"
            "pipelinable); ~60%% of integrations find the result still\n"
            "actively mapped (refcount >= 1 before increment); most\n"
            "reverse integrations happen after the creator retired.\n");
}

// ---- Figure 6 -------------------------------------------------------
// Geometry shown in row labels is read back from the spec's params, so
// the JSON stays the source of truth.

void
renderFig6(const ScenarioSpec &spec, const ScenarioResults &res, FILE *out)
{
    const std::vector<std::string> &benches = spec.workloads;

    const size_t baseCfg = needConfig(spec, "base");
    size_t assocCfg[4][2], sizeCfg[5][2];
    for (int a = 0; a < 4; ++a)
        for (int l = 0; l < 2; ++l)
            assocCfg[a][l] =
                needConfig(spec, cellLabel(kFig6Assoc[a], kRealOrac[l]));
    for (int s = 0; s < 5; ++s)
        for (int l = 0; l < 2; ++l)
            sizeCfg[s][l] =
                needConfig(spec, cellLabel(kFig6Size[s], kRealOrac[l]));

    std::map<std::string, double> baseIpc;
    for (size_t w = 0; w < benches.size(); ++w)
        baseIpc[benches[w]] = res.report(w, baseCfg).ipc();

    printTableHeader(out, "Figure 6 (left): IT associativity, speedup % "
                     "(realistic/oracle)");
    fprintf(out, "%-10s", "assoc");
    for (const auto &bm : benches)
        fprintf(out, " %13s", bm.c_str());
    fprintf(out, " %13s\n", "GMean");
    for (int a = 0; a < 4; ++a) {
        const unsigned aw =
            spec.configs[assocCfg[a][0]].params.integ.itAssoc;
        fprintf(out, "%-10s",
                aw >= 1024 ? "full" : strfmt("%u-way", aw).c_str());
        std::vector<double> gp[2];
        for (size_t w = 0; w < benches.size(); ++w) {
            const std::string &bm = benches[w];
            double sp[2];
            for (int l = 0; l < 2; ++l) {
                sp[l] = speedupPct(baseIpc[bm],
                                   res.report(w, assocCfg[a][l]).ipc());
                gp[l].push_back(sp[l]);
            }
            fprintf(out, " %6.2f/%6.2f", sp[0], sp[1]);
        }
        fprintf(out, " %6.2f/%6.2f\n", gmeanSpeedupPct(gp[0]),
                gmeanSpeedupPct(gp[1]));
    }

    printTableHeader(out, "Figure 6 (right): IT size (fully assoc), speedup % "
                     "(realistic/oracle)");
    fprintf(out, "%-10s", "entries");
    for (const auto &bm : benches)
        fprintf(out, " %13s", bm.c_str());
    fprintf(out, " %13s\n", "GMean");
    for (int s = 0; s < 5; ++s) {
        const IntegrationParams &ip =
            spec.configs[sizeCfg[s][0]].params.integ;
        fprintf(out, "%-10s",
                ip.genBits == 4
                    ? strfmt("%u", ip.itEntries).c_str()
                    : strfmt("%u/g%u", ip.itEntries, ip.genBits).c_str());
        std::vector<double> gp[2];
        for (size_t w = 0; w < benches.size(); ++w) {
            const std::string &bm = benches[w];
            double sp[2];
            for (int l = 0; l < 2; ++l) {
                sp[l] = speedupPct(baseIpc[bm],
                                   res.report(w, sizeCfg[s][l]).ipc());
                gp[l].push_back(sp[l]);
            }
            fprintf(out, " %6.2f/%6.2f", sp[0], sp[1]);
        }
        fprintf(out, " %6.2f/%6.2f\n", gmeanSpeedupPct(gp[0]),
                gmeanSpeedupPct(gp[1]));
    }

    fprintf(out,
            "\nPaper reference: speedup only drops to 7%% (2-way) and 6%%\n"
            "(direct-mapped) from 8%% (4-way), and rises to just 10%% at\n"
            "full associativity -- mis-integrations dampen associativity;\n"
            "reverse integration is insensitive to associativity because\n"
            "stack-frame offsets give a natural conflict-free indexing.\n");
}

// ---- Figure 7 -------------------------------------------------------

void
renderFig7(const ScenarioSpec &spec, const ScenarioResults &res, FILE *out)
{
    const std::vector<std::string> &benches = spec.workloads;

    const size_t baseCfg = needConfig(spec, "base");
    size_t cfgIdx[4][3];
    for (int c = 0; c < 4; ++c)
        for (int l = 0; l < 3; ++l)
            cfgIdx[c][l] =
                needConfig(spec, cellLabel(kFig7Machines[c], kFig7Lisp[l]));

    std::map<std::string, SimReport> baseNoInt;
    for (size_t w = 0; w < benches.size(); ++w)
        baseNoInt[benches[w]] = res.report(w, baseCfg);

    printTableHeader(out, "Figure 7: speedup % vs base/no-integration "
                     "(noint | +reverse realistic | oracle)");
    fprintf(out, "%-8s baseIPC", "bench");
    for (const char *c : kFig7Machines)
        fprintf(out, " | %22s", c);
    fprintf(out, "\n");

    std::vector<double> gm[4][3];
    std::map<std::string, SimReport> baseRev;
    for (size_t w = 0; w < benches.size(); ++w) {
        const std::string &bm = benches[w];
        printTableRowLabel(out, bm);
        fprintf(out, " %7.2f", baseNoInt[bm].ipc());
        for (int c = 0; c < 4; ++c) {
            double sp[3];
            for (int l = 0; l < 3; ++l) {
                const SimReport &r = res.report(w, cfgIdx[c][l]);
                sp[l] = speedupPct(baseNoInt[bm].ipc(), r.ipc());
                gm[c][l].push_back(sp[l]);
                if (c == 0 && l == 1)
                    baseRev[bm] = r;
            }
            fprintf(out, " | %6.1f %6.1f %6.1f", sp[0], sp[1], sp[2]);
        }
        fprintf(out, "\n");
    }
    printTableRowLabel(out, "GMean");
    fprintf(out, "        ");
    for (int c = 0; c < 4; ++c)
        fprintf(out, " | %6.1f %6.1f %6.1f", gmeanSpeedupPct(gm[c][0]),
                gmeanSpeedupPct(gm[c][1]), gmeanSpeedupPct(gm[c][2]));
    fprintf(out, "\n");

    printTableHeader(out, "Section 3.5 diagnostics: execution-stream "
                     "compression (base machine, +reverse)");
    fprintf(out, "%-8s %12s %12s %12s %12s\n", "bench", "exec-delta%",
            "loads-delta%", "rsOcc(base)", "rsOcc(+rev)");
    double ed = 0, ld = 0, r0 = 0, r1 = 0;
    for (const auto &bm : benches) {
        const CoreStats &b = baseNoInt[bm].core;
        const CoreStats &r = baseRev[bm].core;
        const double de = 100.0 * (double(r.issued) - double(b.issued)) /
                          double(b.issued);
        const double dl =
            100.0 * (double(r.issuedLoads) - double(b.issuedLoads)) /
            double(b.issuedLoads);
        fprintf(out, "%-8s %12.1f %12.1f %12.1f %12.1f\n", bm.c_str(), de,
                dl, b.avgRsOccupancy(), r.avgRsOccupancy());
        ed += de;
        ld += dl;
        r0 += b.avgRsOccupancy();
        r1 += r.avgRsOccupancy();
    }
    fprintf(out, "%-8s %12.1f %12.1f %12.1f %12.1f\n", "AMean",
            ed / benches.size(), ld / benches.size(), r0 / benches.size(),
            r1 / benches.size());

    fprintf(out,
            "\nPaper reference: IW costs 12%% (eon hit hardest, -21%%),\n"
            "integration recovers to within 2%% of base; RS costs 10%%,\n"
            "integration recovers to within 1%%; IW+RS costs 18%%,\n"
            "integration recovers to within 7%%. Executed instructions\n"
            "-17%%, executed loads -27%%, RS occupancy 31 -> 27.\n");
}

} // namespace rix
