/**
 * @file
 * Small bit-manipulation helpers used by caches, predictors and the
 * integration table index functions.
 */

#ifndef RIX_BASE_BITUTIL_HH
#define RIX_BASE_BITUTIL_HH

#include <cassert>

#include "base/types.hh"

namespace rix
{

/** Return a mask of the low @p nbits bits. */
constexpr u64
mask(unsigned nbits)
{
    return nbits >= 64 ? ~u64(0) : (u64(1) << nbits) - 1;
}

/** Extract bits [first, last] (inclusive, last >= first) of @p val. */
constexpr u64
bits(u64 val, unsigned last, unsigned first)
{
    return (val >> first) & mask(last - first + 1);
}

/** Sign-extend the low @p nbits bits of @p val to 64 bits. */
constexpr s64
sext(u64 val, unsigned nbits)
{
    const u64 m = u64(1) << (nbits - 1);
    const u64 v = val & mask(nbits);
    return s64((v ^ m) - m);
}

/** Index of the lowest set bit; @p v must be non-zero. */
inline unsigned
ctz64(u64 v)
{
    assert(v != 0);
    return unsigned(__builtin_ctzll(v));
}

/** True iff @p v is a power of two (zero is not). */
constexpr bool
isPow2(u64 v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Floor of log2; @p v must be non-zero. */
constexpr unsigned
floorLog2(u64 v)
{
    assert(v != 0);
    unsigned r = 0;
    while (v >>= 1)
        ++r;
    return r;
}

/** Ceil of log2; @p v must be non-zero. */
constexpr unsigned
ceilLog2(u64 v)
{
    return isPow2(v) ? floorLog2(v) : floorLog2(v) + 1;
}

/** Align @p a down to a multiple of power-of-two @p unit. */
constexpr u64
alignDown(u64 a, u64 unit)
{
    return a & ~(unit - 1);
}

/** Align @p a up to a multiple of power-of-two @p unit. */
constexpr u64
alignUp(u64 a, u64 unit)
{
    return (a + unit - 1) & ~(unit - 1);
}

/**
 * Mix a 64-bit value into a well-distributed hash (splitmix64 finalizer).
 * Used where a cheap, deterministic scramble is needed (e.g., tests).
 */
constexpr u64
mix64(u64 x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

} // namespace rix

#endif // RIX_BASE_BITUTIL_HH
