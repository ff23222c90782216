#include "sim/sampling/checkpoint_cache.hh"

#include <stdexcept>

#include "trace/profiler.hh"
#include "workload/program_cache.hh"

namespace rix
{

Emulator
fastForward(const Program &prog, u64 icount, const Checkpoint *seed)
{
    Emulator emu(prog);
    if (seed)
        emu.restore(*seed);
    if (icount > emu.instsExecuted()) {
        ScopedPhase timer(HostPhase::FastForward);
        emu.run(icount - emu.instsExecuted());
    }
    if (emu.faulted())
        throw std::runtime_error(emu.fault().describe());
    return emu;
}

const Checkpoint *
CheckpointCache::bestReadySeed(const std::string &workload, u64 scale,
                               u64 icount) const
{
    std::lock_guard<std::mutex> lk(mu);
    const auto lo = slots.lower_bound(Key{workload, scale, 0});
    const auto hi = slots.upper_bound(Key{workload, scale, icount});
    const Checkpoint *best = nullptr;
    for (auto it = lo; it != hi; ++it) {
        // ready is set (release) after ckpt is fully written; the
        // acquire load makes the snapshot safe to read here.
        if (it->second->ready.load(std::memory_order_acquire))
            best = &it->second->ckpt;
    }
    return best; // map is icount-ascending: the last ready one wins
}

const Checkpoint &
CheckpointCache::get(const std::string &workload, u64 scale, u64 icount)
{
    Slot *slot;
    {
        std::lock_guard<std::mutex> lk(mu);
        std::unique_ptr<Slot> &s = slots[Key{workload, scale, icount}];
        if (!s)
            s = std::make_unique<Slot>();
        slot = s.get();
    }
    std::call_once(slot->once, [&]() {
        slot->ckpt = fastForward(globalProgramCache().get(workload, scale),
                                 icount,
                                 bestReadySeed(workload, scale, icount))
                         .snapshot();
        slot->ready.store(true, std::memory_order_release);
        nBuilds.fetch_add(1, std::memory_order_relaxed);
    });
    return slot->ckpt;
}

u64
CheckpointCache::totalInsts(const std::string &workload, u64 scale, u64 cap)
{
    CountSlot *slot;
    {
        std::lock_guard<std::mutex> lk(mu);
        std::unique_ptr<CountSlot> &s = counts[Key{workload, scale, cap}];
        if (!s)
            s = std::make_unique<CountSlot>();
        slot = s.get();
    }
    std::call_once(slot->once, [&]() {
        slot->insts = fastForward(globalProgramCache().get(workload, scale),
                                  cap, bestReadySeed(workload, scale, cap))
                          .instsExecuted();
    });
    return slot->insts;
}

size_t
CheckpointCache::size() const
{
    std::lock_guard<std::mutex> lk(mu);
    return slots.size();
}

CheckpointCache &
globalCheckpointCache()
{
    static CheckpointCache cache;
    return cache;
}

} // namespace rix
