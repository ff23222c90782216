/**
 * @file
 * Process-wide cache of architectural checkpoints.
 *
 * A sampled scenario turns one (workload, config) point into many
 * short detailed intervals, and a sweep crosses those intervals with
 * dozens of configurations — but the checkpoint at a given
 * (workload, scale, instruction-count) point is configuration-
 * independent (it is pure architectural state). This cache creates
 * each such snapshot exactly once and shares it read-only across all
 * jobs and threads, with the same per-slot std::call_once discipline
 * as the ProgramCache: two threads wanting different checkpoints
 * fast-forward concurrently, two threads wanting the same one build
 * it once.
 *
 * Builds are incremental where possible: a fast-forward to instruction
 * N starts from the furthest already-*completed* checkpoint at M <= N
 * of the same (workload, scale) instead of from instruction 0. That
 * only pays off when a plan's checkpoints are built in ascending
 * order — concurrent cold builders would each find no ready seed and
 * all fast-forward from 0 — so the scenario engine pre-builds each
 * workload's checkpoints ascending (one pooled task per workload)
 * before dispatching the interval jobs, making a K-interval plan cost
 * one functional pass per workload. The emulator is deterministic, so
 * the incremental path is bit-identical to fast-forwarding from
 * scratch (tests/test_sampling.cc enforces this).
 */

#ifndef RIX_SIM_SAMPLING_CHECKPOINT_CACHE_HH
#define RIX_SIM_SAMPLING_CHECKPOINT_CACHE_HH

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "emu/checkpoint.hh"
#include "emu/emulator.hh"

namespace rix
{

/**
 * The one checkpoint builder: an emulator of @p prog placed after
 * exactly @p icount architectural instructions, or at its HALT if that
 * comes first. Starts from @p seed (nullable; a checkpoint of @p prog
 * at or before @p icount) and times the functional fast-forward as
 * HostPhase::FastForward. Throws std::runtime_error on an emulator
 * fault. Callers snapshot() the result, or read its count.
 */
Emulator fastForward(const Program &prog, u64 icount,
                     const Checkpoint *seed = nullptr);

class CheckpointCache
{
  public:
    /**
     * The checkpoint of @p workload (at @p scale) taken after exactly
     * @p icount architectural instructions, fast-forwarding to build
     * it on first request. If the program halts earlier, the
     * checkpoint is at the halt point (an interval scheduled past the
     * end of a run measures nothing). Thread-safe; the reference stays
     * valid for the cache's lifetime.
     */
    const Checkpoint &get(const std::string &workload, u64 scale,
                          u64 icount);

    /**
     * Architectural instruction count of the whole run: to HALT, or
     * @p cap if the program does not halt within it. Cached per
     * (workload, scale, cap); used for sampled-IPC extrapolation.
     */
    u64 totalInsts(const std::string &workload, u64 scale, u64 cap);

    /** Checkpoints actually fast-forwarded (not lookups). */
    u64 builds() const { return nBuilds.load(std::memory_order_relaxed); }

    /** Distinct checkpoint slots requested so far. */
    size_t size() const;

  private:
    using Key = std::tuple<std::string, u64, u64>;

    struct Slot
    {
        std::once_flag once;
        std::atomic<bool> ready{false};
        Checkpoint ckpt;
    };

    struct CountSlot
    {
        std::once_flag once;
        u64 insts = 0;
    };

    /** Furthest completed checkpoint of (workload, scale) at an
     *  instruction count <= @p icount, or nullptr. */
    const Checkpoint *bestReadySeed(const std::string &workload,
                                    u64 scale, u64 icount) const;

    mutable std::mutex mu;
    std::map<Key, std::unique_ptr<Slot>> slots;
    std::map<Key, std::unique_ptr<CountSlot>> counts;
    std::atomic<u64> nBuilds{0};
};

/** The process-wide instance used by the sweep engine. */
CheckpointCache &globalCheckpointCache();

} // namespace rix

#endif // RIX_SIM_SAMPLING_CHECKPOINT_CACHE_HH
