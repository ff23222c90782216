/**
 * @file
 * Microarchitectural coverage maps for coverage-guided fuzzing.
 *
 * A CoverageMap is a fixed-size bitmap summarizing which
 * microarchitectural paths one simulation actually exercised. It has
 * two sections:
 *
 *  - Section A (word 0): discrete event bits — integration outcomes
 *    by type/distance/status/refcount at retirement, LISP and oracle
 *    suppressions, branch-outcome integration and rename-time
 *    redirects, mis-integration kinds, squash causes,
 *    direction-predictor (predicted, actual) edges at retirement, and
 *    retire/writeback edge cases (sp-base loads, CHT decrements,
 *    write-buffer stalls, HALT, text-segment faults). The top bits
 *    classify how a fuzz run failed; the fuzz driver sets them after
 *    the run from the structured outcome.
 *
 *  - Section B (bits kStatsBase..): one-hot log2 buckets of the
 *    CoreStats counters — order-of-magnitude coverage of squash churn,
 *    mispredict volume, integration rates and the like.
 *
 * The core never writes a map. harvest() fills both sections after the
 * run: an event bit whose event a CoreStats counter records (the
 * Figure-5 buckets, misintegration kinds, squash causes, ...) is set
 * when that counter is non-zero, and the five events no counter
 * records come from the one word the core ORs them into
 * (Core::uncountedEvents). Coverage therefore costs the simulated
 * path one OR per uncounted event and can never change simulated
 * state.
 *
 * Maps order/equality/signature are pure functions of the run, which
 * is what makes guided fuzz campaigns bit-reproducible across job
 * counts: maps are folded into the campaign union in deterministic
 * program order, never in thread completion order.
 */

#ifndef RIX_TRACE_COVERAGE_HH
#define RIX_TRACE_COVERAGE_HH

#include <cstddef>
#include <string>

#include "base/types.hh"

namespace rix
{

class Core;

/** Section-A event bits (word 0 of the map). */
enum CovEvent : unsigned
{
    // Integration outcome at retirement, [bucket][0=direct 1=reverse].
    kCovIntegType = 0,      // 10 bits: type (5 Figure-5 classes) * 2 + r
    kCovIntegDistance = 10, // 12 bits: distance bucket (6) * 2 + r
    kCovIntegStatus = 22,   //  8 bits: status (4) * 2 + r
    kCovIntegRefcount = 30, //  8 bits: refcount bucket (4) * 2 + r

    // Rename-time integration paths.
    kCovLispSuppress = 38,   // realistic LISP vetoed a candidate
    kCovOracleSuppress = 39, // oracle vetoed a provably wrong match
    kCovIntegBranch = 40,    // branch-outcome integration fired
    kCovRenameRedirect = 41, // integrated branch redirected fetch

    // Mis-integration recovery at retirement.
    kCovMisintLoad = 42,
    kCovMisintBranch = 43,
    kCovMisintRegister = 44,
    kCovLispTrain = 45, // realistic LISP trained on a misint load

    // Squash causes.
    kCovSquashBranch = 46,
    kCovSquashMemOrder = 47,
    kCovSquashMisint = 48,

    // Direction-predictor edges observed at retirement:
    // predTaken * 2 + actualTaken.
    kCovBranchEdge = 49, // 4 bits
    kCovMispredictRetired = 53,

    // Retire/writeback edge cases.
    kCovRetireSpLoad = 54,
    kCovRetireChtDecrement = 55, // speculative-past-store load retired
    kCovRetireWbStall = 56,      // store retire stalled on write buffer
    kCovRetireHalt = 57,
    kCovTextFault = 58, // retiring store hit the text segment

    // Failure classes (set by the fuzz driver from the run outcome).
    kCovFailValue = 59,
    kCovFailPcStream = 60,
    // Bit 61 is unused: renumbering the bits after it would
    // invalidate journaled corpora and failure fingerprints.
    kCovFailStuckWatchdog = 62,
    kCovFailStuckTextFault = 63,

    kCovEventBits = 64, // end of section A
};

class CoverageMap
{
  public:
    static constexpr size_t kBits = 512;
    static constexpr size_t kWords = kBits / 64;

    /** First Section-B bit; each harvested counter owns 16 bits. */
    static constexpr unsigned kStatsBase = kCovEventBits;
    static constexpr unsigned kBitsPerCounter = 16;

    void clear();

    void
    set(unsigned bit)
    {
        words_[bit / 64] |= u64(1) << (bit % 64);
    }

    bool
    test(unsigned bit) const
    {
        return (words_[bit / 64] >> (bit % 64)) & 1;
    }

    /** OR in the coverage of @p core's finished run: the section-A
     *  bits its counters and uncounted-event word imply, and the
     *  log2-bucketed counters as section B. */
    void harvest(const Core &core);

    /**
     * OR this map into @p into.
     * @return true when @p into gained at least one new bit.
     */
    bool orInto(CoverageMap &into) const;

    /** Number of set bits. */
    size_t popcount() const;

    /** FNV-1a hash of the whole map (campaign determinism checks). */
    u64 signature() const;

    /** The five failure-class bits (kCovFailValue..), as a small int. */
    unsigned failureClassBits() const;

    /** Section A (the discrete event bits) as one word — the stable
     *  part failure fingerprints hash (section B's magnitude buckets
     *  vary with program size and would defeat dedupe). */
    u64 eventWord() const { return words_[0]; }

    /** Fixed-width lowercase hex rendering (kWords * 16 digits). */
    std::string toHex() const;

    /** Parse toHex() output. @return false on malformed input. */
    bool fromHex(const std::string &hex);

    bool operator==(const CoverageMap &o) const;
    bool operator!=(const CoverageMap &o) const { return !(*this == o); }

  private:
    u64 words_[kWords] = {};
};

} // namespace rix

#endif // RIX_TRACE_COVERAGE_HH
