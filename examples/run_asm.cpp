/**
 * @file
 * Command-line assembler runner: assemble a .s file and execute it on
 * the functional emulator and/or the cycle-level core.
 *
 *   $ ./build/examples/run_asm program.s [off|squash|general|opcode|reverse]
 *
 * Prints the program's emitted output (syscall 1), final register
 * state, and (when simulated) the machine statistics.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "assembler/parser.hh"
#include "sim/simulator.hh"

using namespace rix;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        fprintf(stderr,
                "usage: %s program.s [off|squash|general|opcode|reverse]\n",
                argv[0]);
        return 2;
    }

    std::ifstream in(argv[1]);
    if (!in) {
        fprintf(stderr, "cannot open %s\n", argv[1]);
        return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();

    std::string err;
    bool ok = false;
    Program prog = assembleText(ss.str(), argv[1], &err, &ok);
    if (!ok) {
        fprintf(stderr, "assembly failed: %s\n", err.c_str());
        return 1;
    }
    printf("%s: %zu instructions, %zu data bytes, entry @%llu\n",
           prog.name.c_str(), prog.code.size(), prog.data.size(),
           (unsigned long long)prog.entry);

    IntegrationMode mode = IntegrationMode::Reverse;
    if (argc >= 3) {
        const char *m = argv[2];
        if (!strcmp(m, "off")) mode = IntegrationMode::Off;
        else if (!strcmp(m, "squash")) mode = IntegrationMode::Squash;
        else if (!strcmp(m, "general")) mode = IntegrationMode::General;
        else if (!strcmp(m, "opcode")) mode = IntegrationMode::OpcodeIndexed;
        else if (!strcmp(m, "reverse")) mode = IntegrationMode::Reverse;
        else {
            fprintf(stderr, "unknown mode '%s'\n", m);
            return 2;
        }
    }

    const CoreParams params = integrationParams(mode);
    Core core(prog, params);
    core.run(100'000'000, 2'000'000'000);
    requireNoDivergence(core, argv[1]);
    if (!core.halted()) {
        fprintf(stderr, "did not halt within the simulation budget\n");
        return 1;
    }

    const CoreStats &s = core.stats();
    printf("\nretired %llu instructions in %llu cycles (IPC %.3f)\n",
           (unsigned long long)s.retired, (unsigned long long)s.cycles,
           s.ipc());
    printf("integration (%s): rate %.1f%% (direct %llu, reverse %llu), "
           "mis-integrations %llu\n",
           integrationModeName(mode), 100.0 * s.integrationRate(),
           (unsigned long long)s.integratedDirect,
           (unsigned long long)s.integratedReverse,
           (unsigned long long)s.misintegrations);

    if (!core.golden().output().empty()) {
        printf("\nprogram output:");
        for (u64 v : core.golden().output())
            printf(" %llu", (unsigned long long)v);
        printf("\n");
    }
    printf("\nfinal registers (non-zero):\n");
    for (unsigned r = 0; r < numLogRegs; ++r) {
        const u64 v = core.golden().reg(LogReg(r));
        if (v && r != regSp && r != regGp)
            printf("  r%-2u = %llu (0x%llx)\n", r, (unsigned long long)v,
                   (unsigned long long)v);
    }

    const std::string verr = verifyAgainstEmulator(prog, params);
    printf("\nverification vs emulator: %s\n",
           verr.empty() ? "OK" : verr.c_str());
    return verr.empty() ? 0 : 1;
}
