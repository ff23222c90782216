/**
 * @file
 * Unit tests for the process-wide program cache: exactly one
 * construction per (workload, scale) key, stable shared references,
 * and safe concurrent lookup from many threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "base/thread_pool.hh"
#include "workload/program_cache.hh"

using namespace rix;

namespace
{

std::atomic<int> builderCalls{0};

Program
countingBuilder(const std::string &name, u64 scale)
{
    builderCalls.fetch_add(1);
    return buildWorkload(name, scale);
}

} // namespace

TEST(ProgramCache, BuildsEachKeyOnce)
{
    builderCalls = 0;
    ProgramCache cache(countingBuilder);

    const Program &a = cache.get("gzip", 1);
    const Program &b = cache.get("gzip", 1);
    EXPECT_EQ(&a, &b); // shared, not copied
    EXPECT_EQ(builderCalls.load(), 1);
    EXPECT_EQ(cache.builds(), 1u);

    // A different scale is a different program.
    const Program &c = cache.get("gzip", 2);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(builderCalls.load(), 2);

    // A different workload too.
    cache.get("mcf", 1);
    EXPECT_EQ(builderCalls.load(), 3);
    EXPECT_EQ(cache.size(), 3u);
}

TEST(ProgramCache, ReferencesStayValidAcrossInserts)
{
    ProgramCache cache;
    const Program &first = cache.get("gzip", 1);
    const std::string name = first.name;
    const size_t code = first.codeSize();
    // Populate many more slots; the first reference must not move.
    for (const char *w : {"mcf", "parser", "twolf", "vortex"})
        cache.get(w, 1);
    EXPECT_EQ(first.name, name);
    EXPECT_EQ(first.codeSize(), code);
}

TEST(ProgramCache, ConcurrentLookupBuildsOnce)
{
    builderCalls = 0;
    ProgramCache cache(countingBuilder);

    // Hammer the same two keys from many threads at once; every thread
    // must see the same object and each key must build exactly once.
    std::vector<std::thread> threads;
    std::vector<const Program *> seen(16, nullptr);
    for (int t = 0; t < 16; ++t) {
        threads.emplace_back([&cache, &seen, t]() {
            const char *name = (t % 2) ? "gzip" : "gcc";
            const Program *p = nullptr;
            for (int i = 0; i < 8; ++i)
                p = &cache.get(name, 1);
            seen[t] = p;
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(builderCalls.load(), 2);
    EXPECT_EQ(cache.builds(), 2u);
    for (int t = 0; t < 16; ++t) {
        EXPECT_NE(seen[t], nullptr);
        EXPECT_EQ(seen[t], seen[t % 2]); // same object per key
    }
}

TEST(ProgramCache, GlobalInstanceIsShared)
{
    const Program &a = globalProgramCache().get("gzip", 1);
    const Program &b = globalProgramCache().get("gzip", 1);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.name, "gzip");
}
