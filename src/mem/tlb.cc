#include "mem/tlb.hh"

#include "base/bitutil.hh"
#include "base/log.hh"

namespace rix
{

Tlb::Tlb(const TlbParams &params) { reset(params); }

void
Tlb::reset(const TlbParams &params)
{
    p = params;
    if (p.entries == 0 || p.assoc == 0)
        rix_fatal("TLB: bad geometry");
    unsigned a = p.assoc >= p.entries ? p.entries : p.assoc;
    sets = p.entries / a;
    if (!isPow2(sets))
        rix_fatal("TLB: set count must be a power of two");
    table.assign(size_t(sets) * a, Entry{});
    lruClock = 0;
    nHits = nMisses = 0;
}

bool
Tlb::probe(Addr addr) const
{
    const u64 vpn = vpnOf(addr);
    const unsigned assoc = unsigned(table.size()) / sets;
    const Entry *base = &table[size_t(setOf(vpn)) * assoc];
    for (unsigned w = 0; w < assoc; ++w)
        if (base[w].valid && base[w].vpn == vpn)
            return true;
    return false;
}

void
Tlb::repeatHit(Addr addr, u64 k)
{
    const u64 vpn = vpnOf(addr);
    const unsigned assoc = unsigned(table.size()) / sets;
    Entry *base = &table[size_t(setOf(vpn)) * assoc];
    for (unsigned w = 0; w < assoc; ++w) {
        Entry &e = base[w];
        if (e.valid && e.vpn == vpn) {
            lruClock += k;
            e.lruStamp = lruClock;
            nHits += k;
            return;
        }
    }
    rix_panic("TLB: repeatHit on a missing page");
}

Cycle
Tlb::fillOnMiss(u64 vpn, Entry *base, unsigned assoc)
{
    ++nMisses;
    unsigned victim = 0;
    u64 best = ~u64(0);
    for (unsigned w = 0; w < assoc; ++w) {
        if (!base[w].valid) {
            victim = w;
            break;
        }
        if (base[w].lruStamp < best) {
            best = base[w].lruStamp;
            victim = w;
        }
    }
    Entry &e = base[victim];
    e.valid = true;
    e.vpn = vpn;
    e.lruStamp = ++lruClock;
    return p.missLatency;
}

void
Tlb::flush()
{
    for (auto &e : table)
        e.valid = false;
}

} // namespace rix
