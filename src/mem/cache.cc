#include "mem/cache.hh"

#include "base/bitutil.hh"
#include "base/log.hh"

namespace rix
{

Cache::Cache(const CacheParams &params) { reset(params); }

void
Cache::reset(const CacheParams &params)
{
    p = params;
    if (!isPow2(p.lineBytes) || !isPow2(p.sizeBytes))
        rix_fatal("%s: size and line must be powers of two",
                  p.name.c_str());
    sets = p.numSets();
    if (sets == 0 || !isPow2(sets))
        rix_fatal("%s: set count %u is not a power of two", p.name.c_str(),
                  sets);
    setShift = floorLog2(sets);
    lines.assign(size_t(sets) * p.assoc, Line{});
    mshrs.assign(p.numMshrs, Mshr{});
    lruClock = 0;
    nHits = nMisses = nMerges = nWritebacks = nMshrStallCycles = 0;
}

bool
Cache::probe(Addr addr) const
{
    const Addr la = lineAddrOf(addr);
    const Line *base = &lines[size_t(setOf(la)) * p.assoc];
    for (u32 w = 0; w < p.assoc; ++w)
        if (base[w].valid && base[w].tag == tagOf(la))
            return true;
    return false;
}

CacheAccessResult
Cache::access(Addr addr, bool is_write, Cycle now,
              const MissHandler &on_miss, const WritebackHandler &on_wb)
{
    Cycle hit_ready;
    if (tryHit(addr, is_write, now, &hit_ready))
        return {hit_ready, true};

    const Addr la = lineAddrOf(addr);
    Line *base = &lines[size_t(setOf(la)) * p.assoc];

    ++nMisses;

    // Merge with an outstanding miss to the same line.
    for (auto &m : mshrs) {
        if (m.busy && m.ready <= now)
            m.busy = false;
        if (m.busy && m.lineAddr == la) {
            ++nMerges;
            return {m.ready > now + p.hitLatency ? m.ready
                                                 : now + p.hitLatency,
                    false};
        }
    }

    // Allocate an MSHR; if all are busy, wait for the earliest.
    Mshr *free_mshr = nullptr;
    Cycle earliest = invalidCycle;
    for (auto &m : mshrs) {
        if (!m.busy) {
            free_mshr = &m;
            break;
        }
        if (m.ready < earliest)
            earliest = m.ready;
    }
    Cycle issue = now + p.hitLatency; // tag-check time before going out
    if (!free_mshr) {
        nMshrStallCycles += earliest - now;
        issue = earliest > issue ? earliest : issue;
        for (auto &m : mshrs) {
            if (m.ready <= issue) {
                m.busy = false;
                free_mshr = &m;
            }
        }
        if (!free_mshr)
            rix_panic("%s: MSHR accounting broken", p.name.c_str());
    }

    const Cycle fill_done = on_miss ? on_miss(la, issue) : issue;

    free_mshr->busy = true;
    free_mshr->lineAddr = la;
    free_mshr->ready = fill_done;

    // Victim selection: invalid first, else LRU.
    u32 victim = 0;
    u64 best = ~u64(0);
    bool found = false;
    for (u32 w = 0; w < p.assoc && !found; ++w) {
        if (!base[w].valid) {
            victim = w;
            found = true;
        }
    }
    if (!found) {
        for (u32 w = 0; w < p.assoc; ++w) {
            if (base[w].lruStamp < best) {
                best = base[w].lruStamp;
                victim = w;
            }
        }
    }

    Line &line = base[victim];
    if (line.valid && line.dirty) {
        ++nWritebacks;
        if (on_wb)
            on_wb(line.tag << setShift | setOf(la), issue);
    }
    line.valid = true;
    line.dirty = is_write;
    line.tag = tagOf(la);
    line.fillDone = fill_done;
    line.lruStamp = ++lruClock;

    return {fill_done, false};
}

void
Cache::repeatHit(Addr addr, u64 k)
{
    const Addr la = lineAddrOf(addr);
    Line *base = &lines[size_t(setOf(la)) * p.assoc];
    for (u32 w = 0; w < p.assoc; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tagOf(la)) {
            lruClock += k;
            line.lruStamp = lruClock;
            nHits += k;
            return;
        }
    }
    rix_panic("%s: repeatHit on a missing line", p.name.c_str());
}

void
Cache::invalidateAll()
{
    for (auto &l : lines)
        l.valid = false;
    for (auto &m : mshrs)
        m.busy = false;
}

} // namespace rix
