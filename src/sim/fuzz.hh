/**
 * @file
 * `rix fuzz` — differential fuzzing of the cycle-level core.
 *
 * Runs N seeded random programs (src/workload/randprog.hh) times a
 * panel of core-parameter points (expanded through the scenario grid
 * machinery), in parallel through parallelFor, each checked at
 * retirement by the core's DIVA oracle. Any divergence is shrunk by a
 * delta-debugging minimizer — instruction ranges are neutralized to
 * NOPs (code addresses never shift, so branch targets stay valid) and
 * the failure re-checked — and written out as a replayable reproducer:
 * the generator seed, the exact configuration point, the divergence
 * report and the shrunken assembly listing.
 *
 * Two campaign modes:
 *
 *  - Blind (default): seeds firstSeed..firstSeed+N-1 in order, stop at
 *    the first failure. The classic property-testing sweep.
 *
 *  - Guided (--guided / --corpus): every run carries a CoverageMap
 *    (src/trace/coverage.hh); programs whose maps contribute new bits
 *    to the campaign union are admitted to a corpus as replayable
 *    (seed, RandProgConfig) pairs, and later generations split their
 *    budget between fresh seeds (explore) and deterministic mutations
 *    of corpus entries (exploit; src/workload/randprog.hh mutators).
 *    Guided campaigns run the whole budget, deduplicating failures by
 *    fingerprint (failure kind + section-A coverage) instead of
 *    stopping at the first one.
 *
 * Both modes are bit-reproducible for any job count: programs are
 * scheduled, counted, folded into the coverage union and admitted to
 * the corpus in program order, never thread completion order.
 */

#ifndef RIX_SIM_FUZZ_HH
#define RIX_SIM_FUZZ_HH

#include <functional>
#include <string>
#include <vector>

#include "cpu/divergence.hh"
#include "sim/corpus.hh"
#include "sim/scenario.hh"
#include "trace/coverage.hh"
#include "workload/randprog.hh"

namespace rix
{

struct FuzzOptions
{
    /** Number of random programs: seeds firstSeed .. firstSeed+seeds-1
     *  (guided campaigns spend the same budget, but exploit slots
     *  replace the fresh seed with a corpus mutation). */
    u64 seeds = 100;
    u64 firstSeed = 1;

    /** Random-program shape. */
    RandProgConfig prog;

    /** Scenario spec supplying the configuration panel (its "configs"
     *  and "grid" expand exactly like `rix run`; workloads/limits are
     *  ignored). Empty: the built-in 4-point panel. */
    std::string panelPath;

    /** Restrict the panel to one point label (""; all points). */
    std::string onlyConfig;

    /** Per-run limits. */
    u64 maxRetired = 10'000'000;
    Cycle maxCycles = 50'000'000;

    /** Where the reproducer is written on failure. */
    std::string reproPath = "rix_fuzz_repro.txt";

    /** Shrink the failing program before writing the reproducer. */
    bool minimize = true;

    /** Coverage-guided mode (see the file comment). */
    bool guided = false;

    /** Corpus journal directory: entries are loaded before the
     *  campaign and new ones saved after it. Implies guided. */
    std::string corpusDir;

    /** Percentage of guided program slots given to fresh seeds; the
     *  rest mutate corpus entries (all slots are fresh while the
     *  corpus is empty). */
    unsigned explorePct = 50;

    /**
     * Test-only failure hook: when set, it is consulted per run
     * (program, seed, config label) before simulation; a non-empty
     * return is recorded as a synthetic failure of that kind and the
     * simulation is skipped. Lets tests exercise the campaign's
     * counting, dedupe and determinism invariants from a correct
     * build. Use with minimize = false (synthetic failures cannot be
     * re-reproduced by the minimizer).
     */
    std::function<std::string(const Program &, u64 seed,
                              const std::string &label)>
        testFailure;
};

struct FuzzFailure
{
    u64 seed = 0;
    /** Generator config of the failing program (a guided-mode mutant
     *  can differ from FuzzOptions::prog). */
    RandProgConfig cfg;
    /** Provenance: "seed" for fresh programs, else the mutator. */
    std::string mutator = "seed";
    std::string configLabel;

    /** The original detection report. */
    DivergenceReport report;

    /** Coverage of the failing run and the dedupe fingerprint
     *  (failureFingerprint of report.kind + map). */
    CoverageMap map;
    u64 fingerprint = 0;

    /** The shrunken failing program (== the generated program when
     *  minimization is off or made no progress). */
    Program minimized;
    /** Re-verification report of the minimized program — the
     *  minimizer preserves the failure kind, and one confirmation run
     *  records how the shrunken program fails. Equals `report` when
     *  minimization is off. */
    DivergenceReport minimizedReport;
    /** Non-NOP instructions left in the shrunken program. */
    size_t liveInsts = 0;
    /** Candidate simulations the minimizer ran. */
    u64 minimizeRuns = 0;
};

struct FuzzResult
{
    u64 programs = 0;
    size_t points = 0;
    u64 runs = 0;

    /** Runs that hit the retired/cycle budget before HALT: those
     *  verified only a prefix of the program, not the whole run.
     *  Always 0 with the default budgets (generated programs halt
     *  within randProgInstBudget()). */
    u64 truncated = 0;

    /** Union coverage over every counted run (plus a loaded corpus's
     *  union in guided mode). */
    CoverageMap coverage;

    /** Failing runs observed / distinct failure fingerprints among
     *  them. Blind campaigns stop at the first failure, so both are
     *  0 or 1 there; guided campaigns run the whole budget. */
    u64 failures = 0;
    u64 uniqueFailures = 0;

    /** Guided mode: corpus size at campaign end, and entries kept
     *  from the --corpus directory load. */
    size_t corpusEntries = 0;
    size_t corpusLoaded = 0;

    bool failed = false;
    FuzzFailure failure;      // valid when failed (the first failure)
    std::string reproFile;    // path written on failure
};

/**
 * Expand the configuration panel: @p panel_path through the scenario
 * parser (empty: the built-in panel), optionally filtered to
 * @p only_config, with every point validated. Fatal on an empty selection, naming the valid labels.
 */
std::vector<ScenarioConfig> fuzzPanel(const std::string &panel_path,
                                      const std::string &only_config);

/**
 * The selection step of fuzzPanel(), split out for testability:
 * filter @p spec's configs to @p only_config (empty selects all) and
 * validate each. Fatal when the panel declares no configs at all
 * (naming @p panel_name) and when the filter matches nothing (naming
 * the valid labels).
 */
std::vector<ScenarioConfig> selectPanelPoints(const ScenarioSpec &spec,
                                              const std::string &panel_name,
                                              const std::string &only_config);

/** Non-NOP instruction count of @p p. */
size_t liveInstCount(const Program &p);

/**
 * Dedupe fingerprint of a failure: FNV-1a over the failure kind and
 * the coverage map's section-A event word. Two failures with the same
 * kind that exercised the same discrete microarchitectural paths are
 * duplicates, regardless of program size (section B is excluded on
 * purpose — its magnitude buckets track program length).
 */
u64 failureFingerprint(const std::string &kind, const CoverageMap &map);

/** Set the kCovFail* class bit matching @p r in @p map. */
void applyFailureClass(const DivergenceReport &r, CoverageMap &map);

/**
 * Delta-debugging shrink: repeatedly neutralize instruction ranges of
 * @p p to NOPs (halving chunk sizes down to single instructions),
 * keeping every candidate for which @p still_fails holds, until a
 * fixed point; trailing NOPs are then trimmed. @p still_fails must be
 * deterministic. @p runs (optional) counts predicate evaluations.
 */
Program minimizeProgram(const Program &p,
                        const std::function<bool(const Program &)> &
                            still_fails,
                        u64 *runs = nullptr);

/** Run the fuzz campaign; on divergence the first failure (in
 *  deterministic program-major, point-minor order) is minimized and a
 *  reproducer written to opts.reproPath. */
FuzzResult runFuzz(const FuzzOptions &opts);

/** True when this build compiled in the deliberate execute-stage
 *  fault (cmake -DRIX_FAULT_INJECT=ON; verification self-test). */
bool buildHasInjectedFault();

} // namespace rix

#endif // RIX_SIM_FUZZ_HH
