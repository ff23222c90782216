#include "core/integration_table.hh"

#include "base/bitutil.hh"
#include "base/log.hh"

namespace rix
{

IntegrationTable::IntegrationTable(const IntegrationParams &p)
{
    reset(p);
}

void
IntegrationTable::reset(const IntegrationParams &p)
{
    params = p;
    if (p.itEntries == 0 || !isPow2(p.itEntries))
        rix_fatal("IT entries must be a power of two (%u)", p.itEntries);
    assoc = p.itAssoc >= p.itEntries ? p.itEntries : p.itAssoc;
    sets = p.itEntries / assoc;
    if (!isPow2(sets))
        rix_fatal("IT sets must be a power of two (entries %u / assoc %u)",
                  p.itEntries, p.itAssoc);
    pcTagged = !modeHasOpcodeIndex(params.mode);
    inputGenMask = params.useGenCounters ? ~u64(0) : ~genBits;

    const size_t n = size_t(sets) * assoc;
    table.assign(n, ITEntry{});
    ways.assign(n, ProbeWords{});
    lruClock = 0;
    ++epoch;
    nextId = 1;
    nLookups = nHits = nInserts = nReplacements = 0;
}

IntegrationTable::SetScan
IntegrationTable::scanSet(const ITProbe &pr) const
{
    const ProbeWords *set = &ways[size_t(pr.set) * assoc];
    unsigned invalid = assoc, lru = 0;
    u64 oldest = ~u64(0);
    for (unsigned w = 0; w < assoc; ++w) {
        const ProbeWords &pw = set[w];
        if (pw.tag == pr.tag && pw.input == pr.input &&
            (!pcTagged || pw.pc == pr.pc))
            return {w, true, false};
        if (pw.tag == 0) {
            if (invalid == assoc)
                invalid = w;
        } else if (pw.lru < oldest) {
            oldest = pw.lru;
            lru = w;
        }
    }
    if (invalid != assoc)
        return {invalid, false, false};
    return {lru, false, true};
}

ITEntry *
IntegrationTable::lookup(ITProbe &pr, ITHandle *handle)
{
    ++nLookups;
    const SetScan scan = scanSet(pr);
    pr.victim = u16(scan.way);
    pr.replaces = scan.replaces;
    if (!scan.match) {
        pr.epoch = epoch;
        return nullptr;
    }
    // Hit: only now touch the payload row. The hit way is also where
    // an insert of this key goes (exact duplicate).
    const size_t i = size_t(pr.set) * assoc + scan.way;
    ways[i].lru = ++lruClock;
    pr.epoch = ++epoch;
    ITEntry &e = table[i];
    ++nHits;
    if (handle)
        *handle = ITHandle{e.id, pr.set, u16(scan.way), true};
    return &e;
}

ITHandle
IntegrationTable::insert(const ITProbe &pr, const ITEntry &payload)
{
    ++nInserts;
    // The victim a lookup of this probe chose holds while the table is
    // unchanged since; otherwise choose again.
    const SetScan scan = pr.epoch == epoch
                             ? SetScan{pr.victim, false, pr.replaces}
                             : scanSet(pr);
    if (scan.replaces)
        ++nReplacements;

    const size_t i = size_t(pr.set) * assoc + scan.way;
    ITEntry &e = table[i];
    e = payload;
    e.id = nextId++;
    ways[i] = ProbeWords{pr.tag, pr.input, pr.pc, ++lruClock};
    ++epoch;

    return ITHandle{e.id, pr.set, u16(scan.way), true};
}

ITEntry *
IntegrationTable::at(const ITHandle &h)
{
    if (!h.valid)
        return nullptr;
    const size_t i = size_t(h.set) * assoc + h.way;
    return (ways[i].tag != 0 && table[i].id == h.id) ? &table[i] : nullptr;
}

void
IntegrationTable::fillBranchOutcome(const ITHandle &h, bool taken)
{
    if (ITEntry *e = at(h)) {
        if (e->isBranch) {
            e->outcomeValid = true;
            e->taken = taken;
        }
    }
}

void
IntegrationTable::invalidate(const ITHandle &h)
{
    if (at(h)) {
        ways[size_t(h.set) * assoc + h.way].tag = 0;
        ++epoch;
    }
}

void
IntegrationTable::invalidateAll()
{
    for (auto &pw : ways)
        pw.tag = 0;
    ++epoch;
}

} // namespace rix
