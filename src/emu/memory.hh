/**
 * @file
 * Sparse byte-addressed simulated memory.
 *
 * Backed by 4 KiB pages allocated on first touch; untouched memory reads
 * as zero. This makes wrong-path accesses (which may compute arbitrary
 * addresses) safe and deterministic.
 *
 * Hot-path layout: page lookup goes through a small direct-mapped
 * page cache (cacheEntries slots indexed by the low page-number bits,
 * shared by reads and writes) in front of an open-addressed,
 * power-of-two flat table mapping page number -> page. The hit is
 * inline here: one tag compare, then a fixed-size load or store. A
 * miss, an access straddling two pages, and a first-touch write go
 * out of line (readSlow/writeSlow): a short linear probe with no
 * allocator traffic, which then fills the slot. Page storage is stable
 * (the table rehash moves 16-byte slots, never the 4 KiB pages), so a
 * cached page pointer stays valid until clear(), the only operation
 * that empties the cache. Only materialized pages are ever cached: a
 * read of untouched memory returns zero and leaves the cache alone.
 */

#ifndef RIX_EMU_MEMORY_HH
#define RIX_EMU_MEMORY_HH

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "base/types.hh"

namespace rix
{

class Memory
{
  public:
    static constexpr unsigned pageBytes = 4096;

    /** One materialized page in an exported snapshot. */
    struct PageImage
    {
        u64 pageNumber = 0;
        std::array<u8, pageBytes> bytes{};
    };

    Memory() { resetTable(); }

    /** Read @p size (1/2/4/8) bytes, little-endian. */
    u64
    read(Addr addr, unsigned size) const
    {
        switch (size) {
          case 8: return readFixed<u64>(addr);
          case 4: return readFixed<u32>(addr);
          case 2: return readFixed<u16>(addr);
          case 1: return readFixed<u8>(addr);
        }
        return readSlow(addr, size);
    }

    /** Write the low @p size bytes of @p value, little-endian. */
    void
    write(Addr addr, u64 value, unsigned size)
    {
        switch (size) {
          case 8: return writeFixed<u64>(addr, value);
          case 4: return writeFixed<u32>(addr, u32(value));
          case 2: return writeFixed<u16>(addr, u16(value));
          case 1: return writeFixed<u8>(addr, u8(value));
        }
        writeSlow(addr, value, size);
    }

    u64 read64(Addr a) const { return readFixed<u64>(a); }
    u32 read32(Addr a) const { return readFixed<u32>(a); }
    u8 read8(Addr a) const { return readFixed<u8>(a); }
    void write64(Addr a, u64 v) { writeFixed<u64>(a, v); }
    void write32(Addr a, u32 v) { writeFixed<u32>(a, v); }
    void write8(Addr a, u8 v) { writeFixed<u8>(a, v); }

    /** Bulk image load (program data segments). */
    void writeBlock(Addr addr, const std::vector<u8> &bytes);

    /** Number of materialized pages. */
    size_t numPages() const { return used; }

    /** Deep content comparison (only materialized, non-zero bytes). */
    bool contentEquals(const Memory &other) const;

    /**
     * Export every materialized page, sorted by page number (so the
     * result is deterministic regardless of touch order) — the full
     * (self-contained) form of a checkpoint snapshot.
     */
    std::vector<PageImage> exportPages() const;

    /**
     * Export only the pages whose content differs from a pristine
     * image of @p image loaded at @p image_base (bytes outside it
     * compare as zero) — the compact diff-vs-image checkpoint form,
     * computed in place without materializing a reference memory.
     */
    std::vector<PageImage>
    exportPagesDiffImage(Addr image_base,
                         const std::vector<u8> &image) const;

    /** Overlay @p pages onto the current content (whole-page copies;
     *  absent pages are untouched). */
    void importPages(const std::vector<PageImage> &pages);

    void clear();

  private:
    using Page = std::array<u8, pageBytes>;

    /** One open-addressing slot; key is pageNumber+1 so 0 means empty
     *  (page 0 is a perfectly valid page). */
    struct Slot
    {
        u64 key = 0;
        Page *page = nullptr;
    };

    static u64
    mix(u64 pn)
    {
        return (pn * 0x9e3779b97f4a7c15ull) >> 32;
    }

    Page *lookupPage(u64 pn) const;
    Page &touchPage(u64 pn);

    /** The page-cache slot of page number @p pn. */
    Slot &
    cacheSlot(u64 pn) const
    {
        return cache[pn & (cacheEntries - 1)];
    }

    /** Host pointer to @p addr when its page is cached and the
     *  @p size-byte access stays inside it; null otherwise. */
    u8 *
    hit(Addr addr, unsigned size) const
    {
        const unsigned off = addr % pageBytes;
        const Slot &s = cacheSlot(addr / pageBytes);
        if (s.key == addr / pageBytes + 1 && off <= pageBytes - size)
            return s.page->data() + off;
        return nullptr;
    }

    template <class T>
    T
    readFixed(Addr a) const
    {
        if (const u8 *p = hit(a, sizeof(T))) {
            T v;
            memcpy(&v, p, sizeof(T));
            return v;
        }
        return T(readSlow(a, sizeof(T)));
    }

    template <class T>
    void
    writeFixed(Addr a, T v)
    {
        if (u8 *p = hit(a, sizeof(T))) {
            memcpy(p, &v, sizeof(T));
            return;
        }
        writeSlow(a, v, sizeof(T));
    }

    /** The out-of-line paths: a page-cache miss (which fills the
     *  slot), an access straddling two pages, or a size other than
     *  1, 2, 4 or 8. */
    u64 readSlow(Addr addr, unsigned size) const;
    void writeSlow(Addr addr, u64 value, unsigned size);

    /** Shared export loop: copy out every materialized page @p keep
     *  accepts, sorted by page number. */
    std::vector<PageImage>
    exportMatching(const std::function<bool(u64, const Page &)> &keep) const;
    void resetTable();
    void grow();

    std::vector<Slot> slots; // power-of-two; load factor kept <= 1/2
    std::vector<std::unique_ptr<Page>> store; // page ownership, stable
    // Pages recycled by clear(): a reused simulation context touches
    // roughly the same working set, so the 4 KiB allocations are kept
    // and re-zeroed instead of going back to the heap per run.
    std::vector<std::unique_ptr<Page>> freePages;
    size_t mask = 0;
    size_t used = 0;

    // Direct-mapped page cache (mutable: read() is logically const);
    // key 0 marks an empty slot, as in the table.
    static constexpr unsigned cacheEntries = 8;
    mutable std::array<Slot, cacheEntries> cache{};
};

} // namespace rix

#endif // RIX_EMU_MEMORY_HH
