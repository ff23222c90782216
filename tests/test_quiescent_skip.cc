/**
 * @file
 * Core::run skips quiescent cycles in closed form; Core::tick is the
 * one-cycle reference. These tests hold run() to that reference: every
 * CoreStats field (memcmp), every substrate counter and the committed
 * architectural state must match a tick()-driven core, on all 16
 * workloads under eight configurations, in chunked runs, at retired
 * stops, in sampled retire-stop windows and at a watchdog trip. They
 * also pin the pieces the skip is built from: the completion queue's
 * next-due cycle and the k-fold repeat helpers of the caches, TLBs,
 * integration table and LISP.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <random>

#include "cpu/completion_queue.hh"
#include "cpu/core.hh"
#include "sim/presets.hh"
#include "workload/workload.hh"

using namespace rix;

namespace
{

// ---------------------------------------------------------------------
// Completion queue: nextDue against a model.

TEST(CompletionQueueNextDue, EmptyIsNever)
{
    CompletionQueue q;
    EXPECT_EQ(q.nextDue(0), ~Cycle(0));
    EXPECT_EQ(q.nextDue(12345), ~Cycle(0));
}

TEST(CompletionQueueNextDue, RingWrapAndOverflow)
{
    CompletionQueue q;
    const Cycle now = 250; // near the end of the ring: buckets wrap
    q.push(now + 10, 1, 0, now); // bucket 4, after the wrap
    EXPECT_EQ(q.nextDue(now), now + 10);
    q.push(now + 3, 2, 1, now); // bucket 253, before the wrap
    EXPECT_EQ(q.nextDue(now), now + 3);
    q.push(now + 600, 3, 2, now); // overflow list
    EXPECT_EQ(q.nextDue(now), now + 3);

    // Take every cycle up to the overflow event and check each step.
    Cycle c = now;
    for (; c < now + 3; ++c) {
        EXPECT_TRUE(q.take(c).empty());
        EXPECT_EQ(q.nextDue(c + 1), now + 3);
    }
    EXPECT_EQ(q.take(c).size(), 1u);
    EXPECT_EQ(q.nextDue(c + 1), now + 10);
    for (++c; c < now + 10; ++c)
        EXPECT_TRUE(q.take(c).empty());
    EXPECT_EQ(q.take(c).size(), 1u);
    EXPECT_EQ(q.nextDue(c + 1), now + 600); // only the overflow is left
    for (++c; c < now + 600; ++c) {
        EXPECT_TRUE(q.take(c).empty()) << c;
        EXPECT_EQ(q.nextDue(c + 1), now + 600) << c;
    }
    const auto &last = q.take(c);
    ASSERT_EQ(last.size(), 1u);
    EXPECT_EQ(last[0].seq, 3u);
    EXPECT_EQ(q.nextDue(c + 1), ~Cycle(0));
}

TEST(CompletionQueueNextDue, MatchesModelUnderRandomLoad)
{
    std::mt19937_64 rng(7);
    CompletionQueue q;
    std::multimap<Cycle, InstSeqNum> model;
    InstSeqNum seq = 1;
    Cycle now = 0;
    while (now < 20000) {
        // Schedule a few events, some past the ring's horizon.
        const unsigned n = unsigned(rng() % 4);
        for (unsigned i = 0; i < n; ++i) {
            const Cycle delta = rng() % 8 == 0 ? 200 + rng() % 500
                                               : 1 + rng() % 40;
            q.push(now + delta, seq, 0, now);
            model.emplace(now + delta, seq++);
        }
        const Cycle want = model.empty() ? ~Cycle(0) : model.begin()->first;
        ASSERT_EQ(q.nextDue(now + 1), want) << "now " << now;
        // Jump straight to the next event, as run() does, or step.
        const Cycle to = (rng() % 2 == 0 && !model.empty())
                             ? want
                             : now + 1;
        for (Cycle c = now + 1; c < to; ++c)
            ASSERT_TRUE(q.take(c).empty()) << c;
        now = to;
        const auto &due = q.take(now);
        auto [lo, hi] = model.equal_range(now);
        ASSERT_EQ(due.size(), size_t(std::distance(lo, hi))) << now;
        model.erase(lo, hi);
        for (size_t i = 1; i < due.size(); ++i)
            EXPECT_LT(due[i - 1].seq, due[i].seq); // age order
    }
}

// ---------------------------------------------------------------------
// k-fold repeat helpers: one call must leave the structure as k single
// calls do, seen through everything that later behaviour depends on.

constexpr u64 repeatCounts[] = {1, 2, 7, 1000};

TEST(RepeatHelpers, CacheRepeatHitEqualsSingleHits)
{
    CacheParams cp{"t", 256, 32, 2, 1, 4}; // 4 sets x 2 ways
    for (u64 k : repeatCounts) {
        Cache a(cp), b(cp);
        std::mt19937_64 rng(k);
        auto miss = [](Addr, Cycle t) { return t + 10; };
        for (Cycle t = 1; t < 3000; ++t) {
            const Addr addr = (rng() % 24) * 32;
            if (rng() % 5 == 0 && a.probe(addr)) {
                Cycle ready;
                for (u64 i = 0; i < k; ++i)
                    ASSERT_TRUE(a.tryHit(addr, false, t, &ready));
                b.repeatHit(addr, k);
                continue;
            }
            const bool w = rng() % 3 == 0;
            const CacheAccessResult ra = a.access(addr, w, t, miss);
            const CacheAccessResult rb = b.access(addr, w, t, miss);
            ASSERT_EQ(ra.hit, rb.hit) << "k " << k << " t " << t;
            ASSERT_EQ(ra.ready, rb.ready);
        }
        EXPECT_EQ(a.hits(), b.hits());
        EXPECT_EQ(a.misses(), b.misses());
        EXPECT_EQ(a.writebacks(), b.writebacks());
    }
}

TEST(RepeatHelpers, TlbRepeatHitEqualsSingleHits)
{
    TlbParams tp{8, 2, 8192, 30}; // 4 sets x 2 ways
    for (u64 k : repeatCounts) {
        Tlb a(tp), b(tp);
        std::mt19937_64 rng(k + 100);
        for (int i = 0; i < 3000; ++i) {
            const Addr addr = (rng() % 24) * 8192 + rng() % 8192;
            if (rng() % 5 == 0 && a.probe(addr)) {
                for (u64 j = 0; j < k; ++j)
                    ASSERT_EQ(a.access(addr), 0u);
                b.repeatHit(addr, k);
                continue;
            }
            ASSERT_EQ(a.access(addr), b.access(addr)) << "k " << k;
        }
        EXPECT_EQ(a.hits(), b.hits());
        EXPECT_EQ(a.misses(), b.misses());
    }
}

TEST(RepeatHelpers, ItRepeatLookupEqualsSingleLookups)
{
    IntegrationParams ip;
    ip.itEntries = 8;
    ip.itAssoc = 2; // 4 sets, PC-indexed: keys collide by pc
    for (u64 k : repeatCounts) {
        IntegrationTable a(ip), b(ip);
        std::mt19937_64 rng(k + 200);
        auto key = [&](u64 r) {
            ITKey kk;
            kk.op = Opcode::ADDQ;
            kk.pc = r % 12;
            kk.hasIn1 = true;
            kk.in1 = PhysReg(r % 3);
            return kk;
        };
        for (int i = 0; i < 3000; ++i) {
            const ITKey kk = key(rng());
            ITProbe pa = a.probe(kk), pb = b.probe(kk);
            const unsigned op = unsigned(rng() % 4);
            if (op == 0) {
                for (u64 j = 0; j < k; ++j) {
                    ITProbe p = pa;
                    a.lookup(p);
                }
                b.repeatLookup(pb, k);
            } else if (op == 1) {
                ITEntry e;
                e.hasOut = true;
                e.out = PhysReg(i);
                const ITHandle ha = a.insert(pa, e), hb = b.insert(pb, e);
                ASSERT_EQ(ha.way, hb.way) << "k " << k << " i " << i;
                ASSERT_EQ(ha.id, hb.id);
            } else {
                ITHandle ha, hb;
                const ITEntry *ea = a.lookup(pa, &ha);
                const ITEntry *eb = b.lookup(pb, &hb);
                ASSERT_EQ(ea != nullptr, eb != nullptr);
                if (ea) {
                    ASSERT_EQ(ea->out, eb->out);
                    ASSERT_EQ(ha.way, hb.way);
                }
                // The victim an insert would take after this lookup.
                ASSERT_EQ(pa.victim, pb.victim);
                ASSERT_EQ(pa.replaces, pb.replaces);
            }
        }
        EXPECT_EQ(a.lookups(), b.lookups());
        EXPECT_EQ(a.hits(), b.hits());
        EXPECT_EQ(a.inserts(), b.inserts());
        EXPECT_EQ(a.replacements(), b.replacements());
    }
}

TEST(RepeatHelpers, LispRepeatSuppressEqualsSingleCalls)
{
    for (u64 k : repeatCounts) {
        Lisp a(8, 2), b(8, 2);
        std::mt19937_64 rng(k + 300);
        for (int i = 0; i < 3000; ++i) {
            const InstAddr pc = rng() % 24;
            switch (rng() % 3) {
              case 0:
                a.trainMisintegration(pc);
                b.trainMisintegration(pc);
                break;
              case 1:
                for (u64 j = 0; j < k; ++j)
                    a.suppress(pc);
                b.repeatSuppress(pc, k);
                break;
              default:
                ASSERT_EQ(a.suppress(pc), b.suppress(pc)) << "k " << k;
                break;
            }
        }
        EXPECT_EQ(a.suppressions(), b.suppressions());
        EXPECT_EQ(a.trainings(), b.trainings());
    }
}

// ---------------------------------------------------------------------
// run() against tick().

const Program &
workload(const std::string &name)
{
    static std::map<std::string, std::unique_ptr<Program>> built;
    auto &p = built[name];
    if (!p)
        p = std::make_unique<Program>(buildWorkload(name, 1));
    return *p;
}

struct Config
{
    const char *name;
    CoreParams params;
};

std::vector<Config>
configs()
{
    std::vector<Config> out;
    out.push_back({"off", integrationParams(IntegrationMode::Off)});
    out.push_back({"squash", integrationParams(IntegrationMode::Squash)});
    out.push_back({"reverse", integrationParams(IntegrationMode::Reverse)});
    CoreParams nogen = integrationParams(IntegrationMode::OpcodeIndexed);
    nogen.integ.useGenCounters = false;
    out.push_back({"opcode/nogen", nogen});
    CoreParams delay = integrationParams(IntegrationMode::Reverse);
    delay.integ.itWriteDelay = 16;
    out.push_back({"reverse/it_write_delay16", delay});
    out.push_back({"reverse/oracle",
                   integrationParams(IntegrationMode::Reverse,
                                     LispMode::Oracle)});
    CoreParams rs8 = integrationParams(IntegrationMode::Reverse);
    rs8.rsSize = 8;
    out.push_back({"reverse/rs8", rs8});
    // Oracle vetoes followed by an RS stall: the only runs whose
    // skipped stretches repeat an oracle veto.
    CoreParams oracle_rs8 =
        integrationParams(IntegrationMode::Reverse, LispMode::Oracle);
    oracle_rs8.rsSize = 8;
    out.push_back({"reverse/oracle/rs8", oracle_rs8});
    return out;
}

/** run()'s stop condition, one tick() at a time. */
void
tickUntil(Core &c, u64 max_retired = ~u64(0), Cycle max_cycles = ~Cycle(0))
{
    while (!c.stopped() && c.stats().retired < max_retired &&
           c.stats().cycles < max_cycles)
        c.tick();
}

void
expectSameCache(Cache &a, Cache &b, const std::string &what)
{
    EXPECT_EQ(a.hits(), b.hits()) << what;
    EXPECT_EQ(a.misses(), b.misses()) << what;
    EXPECT_EQ(a.mshrMerges(), b.mshrMerges()) << what;
    EXPECT_EQ(a.writebacks(), b.writebacks()) << what;
    EXPECT_EQ(a.mshrStallCycles(), b.mshrStallCycles()) << what;
}

/** Everything the two cores expose must match. */
void
expectSameCore(Core &a, Core &b, const std::string &what)
{
    EXPECT_EQ(std::memcmp(&a.stats(), &b.stats(), sizeof(CoreStats)), 0)
        << what << ": CoreStats differ (cycles " << a.stats().cycles
        << " vs " << b.stats().cycles << ", retired " << a.stats().retired
        << " vs " << b.stats().retired << ")";
    EXPECT_EQ(a.now(), b.now()) << what;
    EXPECT_EQ(a.stopped(), b.stopped()) << what;
    EXPECT_EQ(a.halted(), b.halted()) << what;
    EXPECT_EQ(a.stuck(), b.stuck()) << what;
    EXPECT_EQ(a.stuckReason(), b.stuckReason()) << what;
    EXPECT_EQ(a.divergence() != nullptr, b.divergence() != nullptr) << what;
    EXPECT_EQ(a.uncountedEvents(), b.uncountedEvents()) << what;
    EXPECT_EQ(a.robOccupancy(), b.robOccupancy()) << what;
    EXPECT_EQ(a.rsOccupancy(), b.rsOccupancy()) << what;

    MemHierarchy &ma = a.memHierarchy(), &mb = b.memHierarchy();
    expectSameCache(ma.l1i(), mb.l1i(), what + " l1i");
    expectSameCache(ma.l1d(), mb.l1d(), what + " l1d");
    expectSameCache(ma.l2(), mb.l2(), what + " l2");
    EXPECT_EQ(ma.itlb().hits(), mb.itlb().hits()) << what;
    EXPECT_EQ(ma.itlb().misses(), mb.itlb().misses()) << what;
    EXPECT_EQ(ma.dtlb().hits(), mb.dtlb().hits()) << what;
    EXPECT_EQ(ma.dtlb().misses(), mb.dtlb().misses()) << what;
    EXPECT_EQ(ma.l2Bus().transfers(), mb.l2Bus().transfers()) << what;
    EXPECT_EQ(ma.l2Bus().totalBusyCycles(), mb.l2Bus().totalBusyCycles())
        << what;
    EXPECT_EQ(ma.memBus().transfers(), mb.memBus().transfers()) << what;
    EXPECT_EQ(ma.memBus().busyUntil(), mb.memBus().busyUntil()) << what;

    IntegrationEngine &ia = a.integration(), &ib = b.integration();
    EXPECT_EQ(ia.table().lookups(), ib.table().lookups()) << what;
    EXPECT_EQ(ia.table().hits(), ib.table().hits()) << what;
    EXPECT_EQ(ia.table().inserts(), ib.table().inserts()) << what;
    EXPECT_EQ(ia.table().replacements(), ib.table().replacements()) << what;
    EXPECT_EQ(ia.lisp().suppressions(), ib.lisp().suppressions()) << what;
    EXPECT_EQ(ia.lisp().trainings(), ib.lisp().trainings()) << what;
    EXPECT_EQ(ia.directEntriesCreated(), ib.directEntriesCreated()) << what;
    EXPECT_EQ(ia.reverseEntriesCreated(), ib.reverseEntriesCreated())
        << what;
    EXPECT_EQ(ia.pendingWrites(), ib.pendingWrites()) << what;
    EXPECT_EQ(a.branchPredictor().btb().hits(),
              b.branchPredictor().btb().hits()) << what;
    EXPECT_EQ(a.branchPredictor().btb().misses(),
              b.branchPredictor().btb().misses()) << what;

    const Emulator &ga = a.golden(), &gb = b.golden();
    EXPECT_EQ(ga.pc(), gb.pc()) << what;
    EXPECT_EQ(ga.instsExecuted(), gb.instsExecuted()) << what;
    for (unsigned r = 0; r < numLogRegs; ++r)
        EXPECT_EQ(ga.reg(LogReg(r)), gb.reg(LogReg(r))) << what << " r" << r;
    EXPECT_EQ(ga.output(), gb.output()) << what;
    EXPECT_TRUE(ga.memory().contentEquals(gb.memory())) << what;
}

TEST(QuiescentSkip, FullRunsMatchTickOnEveryWorkloadAndConfig)
{
    for (const Config &cfg : configs()) {
        for (const std::string &w : workloadNames()) {
            const Program &prog = workload(w);
            Core ref(prog, cfg.params), fast(prog, cfg.params);
            tickUntil(ref);
            fast.run();
            EXPECT_TRUE(ref.halted()) << w << " " << cfg.name;
            expectSameCore(ref, fast, w + " " + cfg.name);
        }
    }
}

TEST(QuiescentSkip, ChunkedRunsMatchTickAtEveryChunkEdge)
{
    const Config cfg = configs()[2]; // reverse
    for (const std::string &w : workloadNames()) {
        const Program &prog = workload(w);
        Core ref(prog, cfg.params), fast(prog, cfg.params);
        while (!fast.stopped()) {
            const Cycle edge = fast.stats().cycles + 777;
            tickUntil(ref, ~u64(0), edge);
            fast.run(~u64(0), edge);
            ASSERT_EQ(std::memcmp(&ref.stats(), &fast.stats(),
                                  sizeof(CoreStats)),
                      0)
                << w << " at chunk edge " << edge;
        }
        expectSameCore(ref, fast, w + " chunked");
    }
}

TEST(QuiescentSkip, MaxRetiredStopsMatchTick)
{
    for (const Config &cfg : {configs()[2], configs()[6]}) {
        for (const char *w : {"mcf", "gcc", "perl.d", "twolf"}) {
            const Program &prog = workload(w);
            Core ref(prog, cfg.params), fast(prog, cfg.params);
            for (u64 stop = 1000; !fast.stopped(); stop += 4321) {
                tickUntil(ref, stop);
                fast.run(stop);
                ASSERT_EQ(std::memcmp(&ref.stats(), &fast.stats(),
                                      sizeof(CoreStats)),
                          0)
                    << w << " " << cfg.name << " stop " << stop;
            }
            expectSameCore(ref, fast,
                           std::string(w) + " " + cfg.name + " stops");
        }
    }
}

TEST(QuiescentSkip, SampledRetireStopWindowsMatchTick)
{
    const Config cfg = configs()[2]; // reverse
    for (const char *w : {"mcf", "gcc", "vortex", "bzip2"}) {
        const Program &prog = workload(w);
        Emulator emu(prog);
        for (u64 at : {u64(3000), u64(20000)}) {
            emu.run(at - emu.instsExecuted());
            const Checkpoint ck = emu.snapshot();
            Core ref(prog, cfg.params), fast(prog, cfg.params);
            ref.reset(prog, cfg.params, ck);
            fast.reset(prog, cfg.params, ck);
            // Warmup, then the measured window, each ending exactly on
            // its retired boundary; then a few cycles past the stop.
            for (u64 stop : {u64(2000), u64(6000)}) {
                ref.setRetireStop(stop);
                fast.setRetireStop(stop);
                tickUntil(ref, stop, 5'000'000);
                fast.run(stop, 5'000'000);
                expectSameCore(ref, fast,
                               std::string(w) + " window to " +
                                   std::to_string(stop));
            }
            const Cycle past = fast.stats().cycles + 300;
            tickUntil(ref, ~u64(0), past);
            fast.run(~u64(0), past);
            expectSameCore(ref, fast, std::string(w) + " past the stop");
        }
    }
}

TEST(QuiescentSkip, WatchdogTripsAtTheSameCycle)
{
    for (const char *w : {"mcf", "gcc", "twolf"}) {
        for (u64 watchdog : {u64(25), u64(60)}) {
            CoreParams cp = integrationParams(IntegrationMode::Reverse);
            cp.watchdogCycles = watchdog;
            const Program &prog = workload(w);
            Core ref(prog, cp), fast(prog, cp);
            tickUntil(ref);
            fast.run();
            EXPECT_TRUE(fast.stuck()) << w << " watchdog " << watchdog;
            expectSameCore(ref, fast,
                           std::string(w) + " watchdog " +
                               std::to_string(watchdog));
        }
    }
}

} // namespace
