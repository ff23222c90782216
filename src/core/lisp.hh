/**
 * @file
 * Load Integration Suppression Predictor (LISP).
 *
 * A PC-indexed tag cache (paper baseline: 1K entries, 2-way). A hit
 * suppresses the integration of the load being renamed. Entries are
 * inserted when DIVA detects a load mis-integration. The predictor is
 * deliberately overbiased: entries are never aged out except by
 * replacement, trading false suppressions for fewer mis-integrations.
 */

#ifndef RIX_CORE_LISP_HH
#define RIX_CORE_LISP_HH

#include <vector>

#include "base/types.hh"

namespace rix
{

class Lisp
{
  public:
    Lisp(unsigned entries, unsigned assoc);

    /** Should this load's integration be suppressed? (tag hit) */
    bool suppress(InstAddr pc);

    /** The side effects of @p k more suppress(@p pc) calls with the
     *  table otherwise unchanged, in O(1). */
    void repeatSuppress(InstAddr pc, u64 k);

    /** DIVA detected a mis-integration by the load at @p pc. */
    void trainMisintegration(InstAddr pc);

    u64 suppressions() const { return nSuppressions; }
    u64 trainings() const { return nTrainings; }

    void reset();

    /** Reconfigure geometry and return to the power-on state. */
    void reset(unsigned entries, unsigned assoc);

  private:
    struct Entry
    {
        bool valid = false;
        u64 tag = 0;
        u64 lruStamp = 0;
    };

    u32 indexOf(InstAddr pc) const { return u32(pc) & (sets - 1); }

    unsigned sets;
    unsigned assoc;
    std::vector<Entry> table;
    u64 lruClock = 0;
    u64 nSuppressions = 0, nTrainings = 0;
};

} // namespace rix

#endif // RIX_CORE_LISP_HH
