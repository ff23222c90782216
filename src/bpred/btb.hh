/**
 * @file
 * Branch target buffer (paper: 4K entries) and return-address stack.
 *
 * The BTB caches targets of indirect jumps (direct targets are
 * available from predecode in this slot-addressed code model). The RAS
 * predicts return targets; its top-of-stack index doubles as the
 * dynamic call depth used by the integration table's opcode index.
 *
 * RAS repair uses the standard TOS + top-value checkpoint scheme: every
 * fetched instruction carries the post-fetch RAS state; squash recovery
 * restores it.
 */

#ifndef RIX_BPRED_BTB_HH
#define RIX_BPRED_BTB_HH

#include <vector>

#include "base/types.hh"

namespace rix
{

class Btb
{
  public:
    Btb(unsigned entries, unsigned assoc);

    /** Reconfigure and return to the power-on state. */
    void reset(unsigned entries, unsigned assoc);

    /** Look up a target for @p pc; returns false on miss. */
    bool lookup(InstAddr pc, InstAddr *target);

    /** Install/refresh the target of @p pc. */
    void update(InstAddr pc, InstAddr target);

    u64 hits() const { return nHits; }
    u64 misses() const { return nMisses; }

  private:
    struct Entry
    {
        bool valid = false;
        u64 tag = 0;
        InstAddr target = 0;
        u64 lruStamp = 0;
    };

    u32 setOf(InstAddr pc) const { return u32(pc) & (sets - 1); }

    unsigned sets;
    unsigned assoc;
    std::vector<Entry> table;
    u64 lruClock = 0;
    u64 nHits = 0, nMisses = 0;
};

/** Circular return-address stack with TOS checkpoint/repair. */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(unsigned entries = 32);

    /** Reconfigure and return to the power-on state. */
    void reset(unsigned entries);

    void push(InstAddr return_pc);
    InstAddr pop();

    /** Current call depth (monotonic counter, not the ring index). */
    unsigned depth() const { return tos; }

    /** Checkpoint for per-branch repair (taken for every fetched
     *  instruction, so it is inline and divide-free). */
    struct Checkpoint
    {
        unsigned tos = 0;
        unsigned pos = 0;
        InstAddr topValue = 0;
    };

    Checkpoint
    save() const
    {
        return {tos, pos, tos > 0 ? ring[below(pos)] : 0};
    }

    void
    restore(const Checkpoint &cp)
    {
        tos = cp.tos;
        pos = cp.pos;
        if (tos > 0)
            ring[below(pos)] = cp.topValue;
    }

  private:
    /** The ring slot before @p p (the ring may be any size >= 1). */
    unsigned
    below(unsigned p) const
    {
        return (p == 0 ? unsigned(ring.size()) : p) - 1;
    }

    std::vector<InstAddr> ring;
    unsigned tos = 0; // depth counter
    unsigned pos = 0; // next free ring slot: tos modulo the ring size
};

} // namespace rix

#endif // RIX_BPRED_BTB_HH
