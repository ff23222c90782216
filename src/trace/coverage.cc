#include "trace/coverage.hh"

#include <cstring>
#include <utility>

#include "cpu/core.hh"

namespace rix
{

void
CoverageMap::clear()
{
    std::memset(words_, 0, sizeof(words_));
}

namespace
{

/** 0 for a zero counter, else 1 + floor(log2(v)) clamped to 15. */
unsigned
logBucket(u64 v)
{
    if (v == 0)
        return 0;
    unsigned b = 0;
    while (v >>= 1)
        ++b;
    return b >= 15 ? 15 : b + 1;
}

/** Set bit @p base + 2 * bucket + r for every non-zero cell. */
template <size_t Rows>
void
setNonZero(CoverageMap &m, unsigned base, const u64 (&cells)[Rows][2])
{
    for (unsigned b = 0; b < Rows; ++b)
        for (unsigned r = 0; r < 2; ++r)
            if (cells[b][r])
                m.set(base + b * 2 + r);
}

} // namespace

void
CoverageMap::harvest(const Core &core)
{
    const CoreStats &s = core.stats();

    // Section A. Counters only grow from zero at reset, so "non-zero
    // after the run" is exactly "the event happened during it".
    const u64 uncounted = core.uncountedEvents();
    words_[0] |= uncounted;
    setNonZero(*this, kCovIntegType, s.integByType);
    setNonZero(*this, kCovIntegDistance, s.integByDistance);
    setNonZero(*this, kCovIntegStatus, s.integByStatus);
    setNonZero(*this, kCovIntegRefcount, s.integByRefcount);
    const std::pair<u64, unsigned> counted[] = {
        {s.lispFalseCandidates, kCovLispSuppress},
        {s.oracleSuppressions, kCovOracleSuppress},
        {s.misintLoads, kCovMisintLoad},
        {s.misintBranches, kCovMisintBranch},
        {s.misintRegisters, kCovMisintRegister},
        // The rename-time redirect squashes without counting a
        // branch squash.
        {s.squashesBranch | ((uncounted >> kCovRenameRedirect) & 1),
         kCovSquashBranch},
        {s.squashesMemOrder, kCovSquashMemOrder},
        {s.squashesMisint, kCovSquashMisint},
        {s.retiredMispredicts, kCovMispredictRetired},
        {s.retiredSpLoads, kCovRetireSpLoad},
    };
    for (const auto &[count, bit] : counted)
        if (count)
            set(bit);
    // Every misintegrated load trains a realistic LISP.
    if (s.misintLoads && core.params().integ.lisp == LispMode::Realistic)
        set(kCovLispTrain);
    if (core.halted())
        set(kCovRetireHalt);
    if (core.stuck() && core.golden().faulted())
        set(kCovTextFault);

    // Section B: one 16-bit region per counter, in a fixed order;
    // appending to this list is compatible with old maps (new bits
    // only).
    const u64 counters[] = {
        s.cycles,          s.fetched,
        s.renamed,         s.issued,
        s.issuedLoads,     s.retired,
        s.retiredLoads,    s.retiredStores,
        s.retiredBranches, s.integratedDirect,
        s.integratedReverse, s.retiredSpLoads,
        s.misintegrations, s.oracleSuppressions,
        s.lispFalseCandidates, s.branchMispredicts,
        s.retiredMispredicts, s.memOrderViolations,
        s.squashedInsts,   s.squashesBranch,
        s.squashesMemOrder, s.squashesMisint,
    };
    static_assert(kStatsBase +
                      (sizeof(counters) / sizeof(counters[0])) *
                          kBitsPerCounter <=
                  kBits,
                  "coverage map too small for the harvested counters");
    unsigned base = kStatsBase;
    for (u64 v : counters) {
        set(base + logBucket(v));
        base += kBitsPerCounter;
    }
}

bool
CoverageMap::orInto(CoverageMap &into) const
{
    bool grew = false;
    for (size_t w = 0; w < kWords; ++w) {
        const u64 merged = into.words_[w] | words_[w];
        grew = grew || merged != into.words_[w];
        into.words_[w] = merged;
    }
    return grew;
}

size_t
CoverageMap::popcount() const
{
    size_t n = 0;
    for (u64 w : words_)
        n += size_t(__builtin_popcountll(w));
    return n;
}

u64
CoverageMap::signature() const
{
    // FNV-1a over the words in index order, byte by byte — the same
    // construction the result store uses for spec hashes.
    u64 h = 14695981039346656037ull;
    for (u64 w : words_) {
        for (int b = 0; b < 8; ++b) {
            h ^= (w >> (8 * b)) & 0xff;
            h *= 1099511628211ull;
        }
    }
    return h;
}

unsigned
CoverageMap::failureClassBits() const
{
    return unsigned(words_[kCovFailValue / 64] >> (kCovFailValue % 64)) &
           0x1f;
}

std::string
CoverageMap::toHex() const
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(kWords * 16);
    for (u64 w : words_)
        for (int shift = 60; shift >= 0; shift -= 4)
            out.push_back(digits[(w >> shift) & 0xf]);
    return out;
}

bool
CoverageMap::fromHex(const std::string &hex)
{
    if (hex.size() != kWords * 16)
        return false;
    u64 parsed[kWords] = {};
    for (size_t i = 0; i < hex.size(); ++i) {
        const char c = hex[i];
        unsigned v;
        if (c >= '0' && c <= '9')
            v = unsigned(c - '0');
        else if (c >= 'a' && c <= 'f')
            v = unsigned(c - 'a' + 10);
        else
            return false;
        parsed[i / 16] = (parsed[i / 16] << 4) | v;
    }
    std::memcpy(words_, parsed, sizeof(words_));
    return true;
}

bool
CoverageMap::operator==(const CoverageMap &o) const
{
    return std::memcmp(words_, o.words_, sizeof(words_)) == 0;
}

} // namespace rix
