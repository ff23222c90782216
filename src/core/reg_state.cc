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

RegStateVector::Snapshot
RegStateVector::snapshot() const
{
    Snapshot s;
    s.counts.reserve(entries.size());
    s.gens.reserve(entries.size());
    s.flags.reserve(entries.size());
    for (const auto &e : entries) {
        s.counts.push_back(e.count);
        s.gens.push_back(e.gen);
        s.flags.push_back(u8(e.valid) | u8(e.ready) << 1 |
                          u8(e.pinnedReg) << 2 | u8(e.origin) << 3);
    }
    s.freeQueue = freeQueue;
    return s;
}

void
RegStateVector::restore(const Snapshot &s)
{
    for (size_t i = 0; i < entries.size(); ++i) {
        Entry &e = entries[i];
        e.count = s.counts[i];
        e.gen = s.gens[i];
        e.valid = s.flags[i] & 1;
        e.ready = (s.flags[i] >> 1) & 1;
        e.pinnedReg = (s.flags[i] >> 2) & 1;
        e.origin = ZeroOrigin((s.flags[i] >> 3) & 3);
    }
    freeQueue = s.freeQueue;
}

} // namespace rix
