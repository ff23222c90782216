#include "bpred/btb.hh"

#include "base/bitutil.hh"
#include "base/log.hh"

namespace rix
{

Btb::Btb(unsigned entries, unsigned assoc_) { reset(entries, assoc_); }

void
Btb::reset(unsigned entries, unsigned assoc_)
{
    if (!isPow2(entries))
        rix_fatal("BTB entries must be a power of two");
    assoc = assoc_ >= entries ? entries : assoc_;
    sets = entries / assoc;
    if (!isPow2(sets))
        rix_fatal("BTB sets must be a power of two");
    table.assign(size_t(sets) * assoc, Entry{});
    lruClock = 0;
    nHits = nMisses = 0;
}

bool
Btb::lookup(InstAddr pc, InstAddr *target)
{
    Entry *base = &table[size_t(setOf(pc)) * assoc];
    for (unsigned w = 0; w < assoc; ++w) {
        Entry &e = base[w];
        if (e.valid && e.tag == pc) {
            e.lruStamp = ++lruClock;
            *target = e.target;
            ++nHits;
            return true;
        }
    }
    ++nMisses;
    return false;
}

void
Btb::update(InstAddr pc, InstAddr target)
{
    Entry *base = &table[size_t(setOf(pc)) * assoc];
    unsigned victim = 0;
    u64 best = ~u64(0);
    for (unsigned w = 0; w < assoc; ++w) {
        Entry &e = base[w];
        if (e.valid && e.tag == pc) {
            e.target = target;
            e.lruStamp = ++lruClock;
            return;
        }
        if (!e.valid) {
            victim = w;
            best = 0;
        } else if (e.lruStamp < best) {
            best = e.lruStamp;
            victim = w;
        }
    }
    Entry &e = base[victim];
    e.valid = true;
    e.tag = pc;
    e.target = target;
    e.lruStamp = ++lruClock;
}

ReturnAddressStack::ReturnAddressStack(unsigned entries)
    : ring(entries, 0)
{
}

void
ReturnAddressStack::reset(unsigned entries)
{
    ring.assign(entries, 0);
    tos = 0;
    pos = 0;
}

void
ReturnAddressStack::push(InstAddr return_pc)
{
    ring[pos] = return_pc;
    pos = pos + 1 == ring.size() ? 0 : pos + 1;
    ++tos;
}

InstAddr
ReturnAddressStack::pop()
{
    if (tos == 0)
        return 0; // underflow: predict entry point, will mispredict
    --tos;
    pos = below(pos);
    return ring[pos];
}

} // namespace rix
