#include "core/reg_state.hh"

#include "base/bitutil.hh"
#include "base/log.hh"
#include "isa/regs.hh"

namespace rix
{

RegStateVector::RegStateVector(const IntegrationParams &params)
{
    reset(params);
}

void
RegStateVector::reset(const IntegrationParams &params)
{
    if (params.numPhysRegs < numLogRegs + 1)
        rix_fatal("too few physical registers (%u)", params.numPhysRegs);
    entries.assign(params.numPhysRegs, Entry{});
    maxCount = u8(mask(params.refBits));
    genMask = u8(mask(params.genBits));
    freeQueue.clear();
    for (PhysReg r = 0; r < entries.size(); ++r)
        freeQueue.push_back(r);
}

unsigned
RegStateVector::freeCount() const
{
    unsigned n = 0;
    for (const auto &e : entries)
        if (e.count == 0 && !e.pinnedReg)
            ++n;
    return n;
}

PhysReg
RegStateVector::allocate()
{
    const PhysReg r = tryAllocate();
    if (r == invalidPhysReg)
        rix_panic("physical register file exhausted");
    return r;
}

void
RegStateVector::pin(PhysReg r)
{
    Entry &e = entries[r];
    e.pinnedReg = true;
    e.count = 1;
    e.valid = false;   // never integration-eligible
    e.ready = true;    // value (zero) always available
}

void
RegStateVector::addRef(PhysReg r)
{
    Entry &e = entries[r];
    if (e.count >= maxCount)
        rix_panic("addRef on saturated register p%u", r);
    ++e.count;
    // A previously idle 0/T register is active again; its value is
    // still whatever was computed.
    e.valid = true;
}

bool
RegStateVector::refSaturated(PhysReg r) const
{
    return entries[r].count >= maxCount;
}

void
RegStateVector::releaseSquash(PhysReg r)
{
    Entry &e = entries[r];
    if (e.pinnedReg)
        return;
    if (e.count == 0)
        zeroCountPanic("releaseSquash", r);
    if (--e.count == 0)
        dropToZero(e, r, ZeroOrigin::Squashed);
}

void
RegStateVector::zeroCountPanic(const char *op, PhysReg r)
{
    rix_panic("%s on free register p%u", op, r);
}

bool
RegStateVector::eligible(PhysReg r, u8 expect_gen, IntegrationMode mode,
                         bool check_gen) const
{
    const Entry &e = entries[r];
    if (e.pinnedReg || !e.valid)
        return false;
    if (check_gen && e.gen != (expect_gen & genMask))
        return false;
    if (!modeHasGeneral(mode)) {
        // Squash reuse: only fully unmapped, squash-freed registers may
        // be integrated (the register-ownership discipline).
        return e.count == 0 && e.origin == ZeroOrigin::Squashed;
    }
    // General reuse: any valid register that can take one more mapping.
    return e.count < maxCount;
}

bool
RegStateVector::checkNoLeaks() const
{
    std::vector<bool> reachable(entries.size(), false);
    for (PhysReg r : freeQueue)
        reachable[r] = true;
    for (PhysReg r = 0; r < entries.size(); ++r) {
        const Entry &e = entries[r];
        if (e.count == 0 && !e.pinnedReg && !reachable[r])
            return false;
    }
    return true;
}

} // namespace rix
