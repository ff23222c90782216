/**
 * @file
 * Architectural checkpoint: everything needed to resume a program's
 * execution at a given point of its (deterministic) architectural
 * instruction stream — the PC, the logical register file, the halted
 * flag, the emitted-output log, and a snapshot of the sparse memory.
 *
 * Two memory forms:
 *
 *  - full: every materialized page (self-contained; restorable onto a
 *    cleared memory with no program image);
 *  - diff-vs-image (the default, and much more compact): only the
 *    pages whose content differs from the program's initial data
 *    image. Restoring first reloads the image, then overlays the diff.
 *
 * Checkpoints are produced by Emulator::snapshot() and consumed by
 * Emulator::restore() (functional resume) and by Core::reset()
 * (detailed resume: the restored emulator becomes the DIVA golden
 * state and fetch starts at the checkpoint PC). Both resume paths are
 * bit-exact: continuing from restore(snapshot()) is indistinguishable
 * from never having stopped — tests/test_checkpoint.cc enforces it.
 */

#ifndef RIX_EMU_CHECKPOINT_HH
#define RIX_EMU_CHECKPOINT_HH

#include <array>
#include <vector>

#include "emu/memory.hh"
#include "isa/regs.hh"

namespace rix
{

struct Checkpoint
{
    /** Architectural instructions executed up to this point. */
    u64 icount = 0;

    InstAddr pc = 0;
    bool halted = false;
    std::array<u64, numLogRegs> regs{};

    /** Values emitted via SyscallCode::Emit so far, in order. */
    std::vector<u64> output;

    /** True: pages are a diff against the program's initial image. */
    bool diffVsImage = false;
    std::vector<Memory::PageImage> pages;

    /** Memory payload size (compactness introspection; tests). */
    size_t
    memoryBytes() const
    {
        return pages.size() * sizeof(Memory::PageImage);
    }
};

} // namespace rix

#endif // RIX_EMU_CHECKPOINT_HH
