#include "core/lisp.hh"

#include "base/bitutil.hh"
#include "base/log.hh"

namespace rix
{

Lisp::Lisp(unsigned entries, unsigned assoc_) { reset(entries, assoc_); }

void
Lisp::reset(unsigned entries, unsigned assoc_)
{
    if (entries == 0 || !isPow2(entries))
        rix_fatal("LISP entries must be a power of two (%u)", entries);
    assoc = assoc_ >= entries ? entries : assoc_;
    sets = entries / assoc;
    if (!isPow2(sets))
        rix_fatal("LISP sets must be a power of two");
    table.assign(size_t(sets) * assoc, Entry{});
    lruClock = 0;
    nSuppressions = nTrainings = 0;
}

bool
Lisp::suppress(InstAddr pc)
{
    Entry *base = &table[size_t(indexOf(pc)) * assoc];
    for (unsigned w = 0; w < assoc; ++w) {
        Entry &e = base[w];
        if (e.valid && e.tag == pc) {
            e.lruStamp = ++lruClock;
            ++nSuppressions;
            return true;
        }
    }
    return false;
}

void
Lisp::repeatSuppress(InstAddr pc, u64 k)
{
    Entry *base = &table[size_t(indexOf(pc)) * assoc];
    for (unsigned w = 0; w < assoc; ++w) {
        Entry &e = base[w];
        if (e.valid && e.tag == pc) {
            lruClock += k;
            e.lruStamp = lruClock;
            nSuppressions += k;
            return;
        }
    }
}

void
Lisp::trainMisintegration(InstAddr pc)
{
    ++nTrainings;
    Entry *base = &table[size_t(indexOf(pc)) * assoc];
    unsigned victim = 0;
    u64 best = ~u64(0);
    for (unsigned w = 0; w < assoc; ++w) {
        Entry &e = base[w];
        if (e.valid && e.tag == pc)
            return; // already present
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
    e.lruStamp = ++lruClock;
}

void
Lisp::reset()
{
    for (auto &e : table)
        e.valid = false;
    nSuppressions = nTrainings = 0;
}

} // namespace rix
