/**
 * @file
 * hostprof: a preloadable SIGPROF sampler for one process.
 *
 *   LD_PRELOAD=build/tools/libhostprof.so build/rix run spec.json
 *   python3 tools/hostprof/report.py hostprof.<pid>.out build/rix
 *
 * Loaded into a process, it arms setitimer(ITIMER_PROF), which counts
 * the CPU time of that process alone, and its SIGPROF handler stores
 * the interrupted program counter into an array allocated up front
 * (no allocation, locking or I/O in the handler: it is async-signal
 * safe). At exit it writes hostprof.<pid>.out into the working
 * directory: the process's /proc/self/maps, so that report.py can map
 * each PC back to a file offset, then one PC per line. x86-64 Linux
 * only; elsewhere it says "unsupported" on stderr and records nothing.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>

#if defined(__x86_64__) && defined(__linux__)

#include <fcntl.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>

namespace
{

constexpr unsigned long capacity = 1ul << 20; // ~78 CPU-minutes at 225/s
constexpr long periodUs = 1000;               // ask for 1 kHz

unsigned long *samples = nullptr;
std::atomic<unsigned long> taken{0};

void
onProf(int, siginfo_t *, void *context)
{
    const auto *uc = static_cast<const ucontext_t *>(context);
    const unsigned long i = taken.fetch_add(1, std::memory_order_relaxed);
    if (i < capacity)
        samples[i] = static_cast<unsigned long>(uc->uc_mcontext.gregs[REG_RIP]);
}

void
copyMaps(FILE *out)
{
    const int fd = open("/proc/self/maps", O_RDONLY);
    if (fd < 0)
        return;
    char buf[4096];
    ssize_t n;
    while ((n = read(fd, buf, sizeof(buf))) > 0)
        fwrite(buf, 1, size_t(n), out);
    close(fd);
}

__attribute__((destructor)) void
stop()
{
    if (!samples)
        return;
    itimerval off = {};
    setitimer(ITIMER_PROF, &off, nullptr);
    signal(SIGPROF, SIG_IGN);

    char path[64];
    snprintf(path, sizeof(path), "hostprof.%ld.out", long(getpid()));
    FILE *out = fopen(path, "w");
    if (!out) {
        fprintf(stderr, "hostprof: cannot write %s\n", path);
        return;
    }
    unsigned long n = taken.load();
    if (n > capacity)
        n = capacity;
    fprintf(out, "# hostprof maps\n");
    copyMaps(out);
    fprintf(out, "# hostprof samples %lu period_us %ld\n", n, periodUs);
    for (unsigned long i = 0; i < n; ++i)
        fprintf(out, "%lx\n", samples[i]);
    fclose(out);
}

__attribute__((constructor)) void
start()
{
    samples = static_cast<unsigned long *>(
        calloc(capacity, sizeof(unsigned long)));
    if (!samples)
        return;
    struct sigaction sa = {};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    itimerval tv = {{0, periodUs}, {0, periodUs}};
    setitimer(ITIMER_PROF, &tv, nullptr);
}

} // namespace

#else

namespace
{

__attribute__((constructor)) void
start()
{
    fprintf(stderr, "hostprof: unsupported (x86-64 Linux only)\n");
}

} // namespace

#endif
