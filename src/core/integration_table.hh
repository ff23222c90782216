/**
 * @file
 * The Integration Table (IT).
 *
 * Stores <operation, input-preg/gen pair(s), output-preg/gen> tuples of
 * recently renamed instructions. A renaming instruction whose operation
 * and (current-map) input physical registers match an entry may
 * integrate the entry's output register instead of executing.
 *
 * Two indexing disciplines (paper section 2.3):
 *  - PC indexing (squash/general reuse): the set index and tag are the
 *    instruction's PC;
 *  - opcode indexing: the set index is a structured mix of opcode,
 *    immediate and dynamic call depth; the tag is the minimal
 *    opcode/immediate pair, so different static instructions can
 *    integrate one another's results.
 *
 * Reverse entries (section 2.4) are stored in the same unified table;
 * they are written under the *inverse* operation's key so that the
 * future inverse instruction's ordinary lookup finds them.
 *
 * Conditional branches have no output register; their entries carry the
 * branch outcome instead, filled in when the creating branch executes
 * (handles are id-checked so a reallocated entry is never corrupted).
 */

#ifndef RIX_CORE_INTEGRATION_TABLE_HH
#define RIX_CORE_INTEGRATION_TABLE_HH

#include <vector>

#include "base/stats.hh"
#include "core/params.hh"
#include "isa/opcode.hh"

namespace rix
{

/**
 * The payload row of one way: what a hit reads and what an outcome
 * fill writes. The entry's identity (operation, inputs, PC) lives only
 * in the way's probe words, and the way is valid while its tag word is
 * non-zero.
 */
struct ITEntry
{
    u64 id = 0;         // unique, for outcome-fill handles
    u64 createSeq = 0;  // rename-stream position of the creator

    // Output physical register (absent for branch entries).
    PhysReg out = invalidPhysReg;
    u8 outGen = 0;
    bool hasOut = false;

    bool reverse = false;   // created as a reverse entry

    // Branch outcome payload.
    bool isBranch = false;
    bool outcomeValid = false;
    bool taken = false;
};

/** Stable reference to an entry, validated by id on use. Packed to 16
 *  bytes: two of these ride in every in-flight instruction record. */
struct ITHandle
{
    u64 id = 0;
    u32 set = 0;
    u16 way = 0;
    bool valid = false;
    // Pipelined-IT support: the entry is still in the write-stage
    // buffer; `id` then names the pending record instead.
    bool isPending = false;
};

/** Everything a lookup needs to identify a match. */
struct ITKey
{
    Opcode op = Opcode::NOP;
    s32 imm = 0;
    u64 pc = 0;
    unsigned callDepth = 0;
    bool hasIn1 = false, hasIn2 = false;
    PhysReg in1 = invalidPhysReg, in2 = invalidPhysReg;
    u8 gen1 = 0, gen2 = 0;
};

/**
 * One key's probe of the table, made once per key and carried from
 * lookup() to insert() (also across the pipelined-IT write buffer):
 * the set index plus the packed compare words, and the victim way that
 * a lookup chose while scanning the set. The victim stays valid only
 * while the table is unchanged since that lookup (same epoch);
 * insert() chooses afresh otherwise.
 */
struct ITProbe
{
    u32 set = 0;
    u64 tag = 0;   // valid bit | opcode | immediate; 0: no probe made
    u64 input = 0; // canonical in1/in2/gen1/gen2/has-flag pack
    u64 pc = 0;    // compared under PC tagging only

    u64 epoch = 0;        // table epoch the victim was chosen at; 0: none
    u16 victim = 0;
    bool replaces = false; // victim is a valid way (LRU replacement)

    bool made() const { return tag != 0; }
};

class IntegrationTable
{
  public:
    explicit IntegrationTable(const IntegrationParams &params);

    /**
     * Reconfigure to @p params and return to the power-on state.
     * Reuses the probe words and payload arrays when the geometry is
     * unchanged (the long-lived-context reuse path of the sweep
     * engine).
     */
    void reset(const IntegrationParams &params);

    /** The probe for @p key (set index and compare words), written
     *  into @p pr in place. */
    void
    probe(const ITKey &key, ITProbe &pr) const
    {
        pr.set = index(key);
        pr.tag = tagValidBit | (u64(u8(key.op)) << 32) | u64(u32(key.imm));
        pr.input = packInputs(key.hasIn1, key.hasIn2, key.in1, key.in2,
                              key.gen1, key.gen2);
        pr.pc = key.pc;
        pr.epoch = 0;
    }

    ITProbe
    probe(const ITKey &key) const
    {
        ITProbe pr;
        probe(key, pr);
        return pr;
    }

    /**
     * Find an entry whose operation tag and inputs match the probed
     * key. Updates LRU on hit. Returns nullptr on miss. The caller
     * still has to test output-register eligibility against the
     * reference vector. The same pass records in @p pr the way an
     * insert() of this key would take, so the insert does not scan
     * the set again.
     */
    ITEntry *lookup(ITProbe &pr, ITHandle *handle = nullptr);

    /**
     * Write @p payload under the probed key (its PC is @p pr's) and
     * give it a fresh id. The victim is, in order: the exact tag+input
     * duplicate (overwritten in place), the first invalid way, the
     * least recently used way.
     */
    ITHandle insert(const ITProbe &pr, const ITEntry &payload);

    /** Record the outcome of the branch that created @p h, if it still
     *  owns the entry. */
    void fillBranchOutcome(const ITHandle &h, bool taken);

    /** Entry behind a handle, or nullptr if reallocated since. */
    ITEntry *at(const ITHandle &h);

    /** Invalidate the entry behind @p h (mis-integration response). */
    void invalidate(const ITHandle &h);

    /** Invalidate every entry (used on mis-integration storms/tests). */
    void invalidateAll();

    unsigned numSets() const { return sets; }
    unsigned associativity() const { return assoc; }

    /** Set index for the given key (exposed for distribution tests). */
    u32
    index(const ITKey &key) const
    {
        if (sets == 1)
            return 0;
        if (pcTagged) {
            // PC indexing: the PC distributes entries evenly by itself.
            return u32(key.pc) & (sets - 1);
        }
        // Opcode indexing: structured mix of opcode, immediate and
        // call depth (section 2.3). Immediates are folded at byte
        // granularity as well as raw so that the dense 0/8/16...
        // stack-frame offsets spread over more than a handful of sets;
        // the call depth is scaled so adjacent depths land in
        // different regions of the table.
        u64 ix = u64(key.op) * 0x9e37u;
        ix ^= u64(u32(key.imm));
        ix ^= u64(u32(key.imm)) >> 3;
        if (params.useCallDepthIndex)
            ix ^= u64(key.callDepth) * 0x85ebu;
        return u32(ix) & (sets - 1);
    }

    u64 lookups() const { return nLookups; }
    u64 hits() const { return nHits; }
    u64 inserts() const { return nInserts; }
    u64 replacements() const { return nReplacements; }

  private:
    static constexpr u64 tagValidBit = u64(1) << 63;

    /** Bit layout of the packed input-compare word. */
    static constexpr unsigned in2Shift = 16;
    static constexpr unsigned gen1Shift = 32;
    static constexpr unsigned gen2Shift = 40;
    static constexpr unsigned has1Shift = 48;
    static constexpr unsigned has2Shift = 49;
    static constexpr u64 genBits =
        (u64(0xff) << gen1Shift) | (u64(0xff) << gen2Shift);

    u64
    packInputs(bool h1, bool h2, PhysReg in1, PhysReg in2, u8 g1,
               u8 g2) const
    {
        // Canonical: operand fields contribute only when present, so
        // the packed compare reproduces the original field-by-field
        // semantics (absent operands match regardless of their
        // register values).
        u64 w = (u64(h1) << has1Shift) | (u64(h2) << has2Shift);
        if (h1)
            w |= u64(in1) | (u64(g1) << gen1Shift);
        if (h2)
            w |= (u64(in2) << in2Shift) | (u64(g2) << gen2Shift);
        return w & inputGenMask;
    }

    /** One pass over a probed set. */
    struct SetScan
    {
        unsigned way;  // the matching way, else the insert victim
        bool match;    // an exact tag+input duplicate
        bool replaces; // the victim is a valid way (LRU replacement)
    };

    /** Scan the probed set once: a matching way ends the scan;
     *  otherwise the victim is the first invalid way, else the least
     *  recently used one. */
    SetScan scanSet(const ITProbe &pr) const;

    IntegrationParams params;
    unsigned sets;
    unsigned assoc;
    bool pcTagged;     // PC participates in the tag (PC indexing)
    u64 inputGenMask;  // strips gen bits when gen counters are off

    /**
     * The probe words of one way, apart from its payload row: what
     * lookup() compares and what the victim choice reads. A set's
     * ways are adjacent (row-major sets x assoc, 32 bytes a way), so
     * a probe reads one contiguous block (128 bytes at 4 ways) and an
     * insert writes one way's 32 bytes. tag is 0 for an invalid
     * way: a key word always carries the valid bit, so one compare
     * covers validity and operation tag.
     */
    struct ProbeWords
    {
        u64 tag = 0;
        u64 input = 0;
        u64 pc = 0;  // compared under PC tagging only
        u64 lru = 0; // last-use stamp (lruClock)
    };
    std::vector<ProbeWords> ways;

    std::vector<ITEntry> table; // sets x assoc, row-major (payload)
    u64 lruClock = 0;
    // Advances on every change that can move a victim choice (insert,
    // invalidation, LRU touch); a probe's cached victim holds only
    // while it is unchanged.
    u64 epoch = 1;
    u64 nextId = 1;
    u64 nLookups = 0, nHits = 0, nInserts = 0, nReplacements = 0;
};

} // namespace rix

#endif // RIX_CORE_INTEGRATION_TABLE_HH
