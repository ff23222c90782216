/**
 * @file
 * The structured report of a retire-time DIVA divergence.
 *
 * The DIVA golden emulator re-executes every retiring instruction
 * architecturally. A mismatch on an integrated instruction is a
 * mis-integration and is recovered; a mismatch on anything else — the
 * pipeline retiring a pc the architectural stream never reaches, or a
 * wrong destination value, store traffic or branch target — is a
 * simulator bug. The core never panics on one: it records a
 * DivergenceReport carrying the architectural instruction index, the
 * disassembly, the mismatching values and the committed architectural
 * register file, and stops (Core::divergence()). That report is what
 * the job layer surfaces as a `divergence` status and what `rix fuzz`
 * minimizes into a reproducer. Recording it costs nothing until a
 * mismatch occurs.
 */

#ifndef RIX_CPU_DIVERGENCE_HH
#define RIX_CPU_DIVERGENCE_HH

#include <string>

#include "emu/emulator.hh"

namespace rix
{

/** First DIVA divergence of a run. */
struct DivergenceReport
{
    bool diverged = false;

    /** What diverged: "pc-stream" or "value". */
    std::string kind;

    /**
     * 0-based index of the diverging instruction in the architectural
     * stream (counted from the program start — a core resumed from a
     * checkpoint reports absolute positions, not window offsets).
     */
    u64 icount = 0;

    InstAddr pc = 0;
    std::string disasm;

    /** Human-readable description of the mismatching values. */
    std::string reason;

    /** Committed architectural state (the DIVA golden emulator). */
    std::string goldenState;

    /** Multi-line human-readable rendering of the whole report. */
    std::string format() const;
};

/** One-line-per-4-registers dump of @p e's architectural state. */
std::string formatArchState(const Emulator &e);

} // namespace rix

#endif // RIX_CPU_DIVERGENCE_HH
