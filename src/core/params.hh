/**
 * @file
 * Configuration of the register-integration machinery.
 *
 * The four cumulative modes correspond exactly to the four bars of the
 * paper's Figure 4: squash reuse only; + general reuse (reference
 * counting / simultaneous sharing); + opcode indexing (opcode ^ imm ^
 * call-depth IT index); + reverse integration (speculative memory
 * bypassing for stack saves/restores).
 */

#ifndef RIX_CORE_PARAMS_HH
#define RIX_CORE_PARAMS_HH

#include "base/types.hh"

namespace rix
{

enum class IntegrationMode : u8
{
    Off,            // no integration machinery at all
    Squash,         // baseline squash reuse (PC-indexed, squashed-only)
    General,        // + multiple simultaneous integration (ref counts)
    OpcodeIndexed,  // + opcode/immediate/call-depth IT indexing
    Reverse,        // + reverse entries (speculative memory bypassing)
};

/** True when @p mode includes general reuse. */
constexpr bool
modeHasGeneral(IntegrationMode m)
{
    return m >= IntegrationMode::General;
}

/** True when @p mode uses opcode-based IT indexing. */
constexpr bool
modeHasOpcodeIndex(IntegrationMode m)
{
    return m >= IntegrationMode::OpcodeIndexed;
}

/** True when @p mode creates reverse entries. */
constexpr bool
modeHasReverse(IntegrationMode m)
{
    return m >= IntegrationMode::Reverse;
}

const char *integrationModeName(IntegrationMode m);

/** Load-integration suppression flavour (Figure 4 light/dark bars). */
enum class LispMode : u8
{
    Off,        // never suppress
    Realistic,  // 1K-entry 2-way PC-indexed tag cache, overbiased
    Oracle,     // suppress exactly the provably-wrong integrations
};

const char *lispModeName(LispMode m);

struct IntegrationParams
{
    IntegrationMode mode = IntegrationMode::Reverse;

    // Integration table geometry (paper baseline: 1K entries, 4-way).
    unsigned itEntries = 1024;
    unsigned itAssoc = 4;

    // Physical register tracking.
    unsigned numPhysRegs = 1024;
    unsigned refBits = 4;   // reference-count width
    unsigned genBits = 4;   // generation-counter width

    // Load mis-integration suppression.
    LispMode lisp = LispMode::Realistic;
    unsigned lispEntries = 1024;
    unsigned lispAssoc = 2;

    // Ablation switches (examples/scenarios/ablation_*.json).
    bool useCallDepthIndex = true; // call-depth component of the IT index
    bool useGenCounters = true;    // generation-counter match requirement

    // Pipelined integration (paper section 3.3 discussion): separate
    // IT read and write stages by N renamed instructions. A new entry
    // becomes visible only N renames after its creator, losing the
    // closest-range reuse (the paper bounds the loss at ~20% of
    // integrations for a 4-stage pipeline on a 4-wide machine).
    unsigned itWriteDelay = 0;

    bool enabled() const { return mode != IntegrationMode::Off; }
    bool fullyAssociativeIt() const { return itAssoc >= itEntries; }
};

} // namespace rix

#endif // RIX_CORE_PARAMS_HH
