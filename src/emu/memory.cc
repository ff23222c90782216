#include "emu/memory.hh"

#include <algorithm>
#include <cstring>

namespace rix
{

namespace
{

constexpr size_t minSlots = 64;

} // namespace

void
Memory::resetTable()
{
    slots.assign(minSlots, Slot{});
    mask = minSlots - 1;
    store.clear();
    used = 0;
    cache.fill(Slot{});
}

void
Memory::clear()
{
    // Recycle the materialized pages instead of freeing them; they are
    // zero-filled again on re-touch, so a cleared Memory is
    // indistinguishable from a fresh one.
    for (auto &p : store)
        freePages.push_back(std::move(p));
    resetTable();
}

Memory::Page *
Memory::lookupPage(u64 pn) const
{
    // Linear probe; no deletions ever happen (clear() rebuilds), so an
    // empty slot terminates the probe.
    const u64 key = pn + 1;
    for (size_t i = mix(pn) & mask;; i = (i + 1) & mask) {
        const Slot &s = slots[i];
        if (s.key == key)
            return s.page;
        if (s.key == 0)
            return nullptr;
    }
}

void
Memory::grow()
{
    std::vector<Slot> old = std::move(slots);
    slots.assign(old.size() * 2, Slot{});
    mask = slots.size() - 1;
    for (const Slot &s : old) {
        if (s.key == 0)
            continue;
        size_t i = mix(s.key - 1) & mask;
        while (slots[i].key != 0)
            i = (i + 1) & mask;
        slots[i] = s;
    }
}

Memory::Page &
Memory::touchPage(u64 pn)
{
    if (Page *p = lookupPage(pn))
        return *p;

    // Materialize: pages are zero-filled on first touch.
    if ((used + 1) * 2 > slots.size())
        grow();
    if (!freePages.empty()) {
        store.push_back(std::move(freePages.back()));
        freePages.pop_back();
    } else {
        store.push_back(std::make_unique<Page>());
    }
    Page *p = store.back().get();
    p->fill(0);

    const u64 key = pn + 1;
    size_t i = mix(pn) & mask;
    while (slots[i].key != 0)
        i = (i + 1) & mask;
    slots[i] = Slot{key, p};
    ++used;
    return *p;
}

u64
Memory::readSlow(Addr addr, unsigned size) const
{
    const u64 pn = addr / pageBytes;
    const unsigned off = addr % pageBytes;
    if (off + size <= pageBytes) {
        Page *p = lookupPage(pn);
        if (!p)
            return 0; // untouched memory reads as zero
        cacheSlot(pn) = Slot{pn + 1, p};
        u64 val = 0;
        memcpy(&val, p->data() + off, size);
        return val;
    }
    u64 val = 0;
    for (unsigned i = 0; i < size; ++i) {
        const Addr a = addr + i;
        if (const Page *p = lookupPage(a / pageBytes))
            val |= u64((*p)[a % pageBytes]) << (8 * i);
    }
    return val;
}

void
Memory::writeSlow(Addr addr, u64 value, unsigned size)
{
    const u64 pn = addr / pageBytes;
    const unsigned off = addr % pageBytes;
    if (off + size <= pageBytes) {
        Page *p = &touchPage(pn);
        cacheSlot(pn) = Slot{pn + 1, p};
        memcpy(p->data() + off, &value, size);
        return;
    }
    for (unsigned i = 0; i < size; ++i) {
        const Addr a = addr + i;
        touchPage(a / pageBytes)[a % pageBytes] = u8(value >> (8 * i));
    }
}

void
Memory::writeBlock(Addr addr, const std::vector<u8> &bytes)
{
    // Page-wise memcpy: a multi-megabyte program image is reloaded on
    // every emulator reset/restore, where the old per-byte write8()
    // loop dominated checkpoint-restore time.
    size_t i = 0;
    while (i < bytes.size()) {
        const Addr a = addr + i;
        const unsigned off = a % pageBytes;
        const size_t chunk =
            std::min<size_t>(bytes.size() - i, pageBytes - off);
        memcpy(touchPage(a / pageBytes).data() + off, bytes.data() + i,
               chunk);
        i += chunk;
    }
}

std::vector<Memory::PageImage>
Memory::exportMatching(
    const std::function<bool(u64, const Page &)> &keep) const
{
    std::vector<PageImage> out;
    out.reserve(used);
    for (const Slot &s : slots) {
        if (s.key == 0)
            continue;
        const u64 pn = s.key - 1;
        if (!keep(pn, *s.page))
            continue;
        PageImage img;
        img.pageNumber = pn;
        memcpy(img.bytes.data(), s.page->data(), pageBytes);
        out.push_back(std::move(img));
    }
    std::sort(out.begin(), out.end(),
              [](const PageImage &a, const PageImage &b) {
                  return a.pageNumber < b.pageNumber;
              });
    return out;
}

std::vector<Memory::PageImage>
Memory::exportPages() const
{
    return exportMatching([](u64, const Page &) { return true; });
}

std::vector<Memory::PageImage>
Memory::exportPagesDiffImage(Addr image_base,
                             const std::vector<u8> &image) const
{
    static const Page zeroPage = {};
    const auto allZero = [](const u8 *p, size_t n) {
        return memcmp(p, zeroPage.data(), n) == 0;
    };
    // Pristine content of a page is the overlapping slice of the
    // image, zero everywhere else — compared in place, with no
    // reference page constructed.
    return exportMatching([&](u64 pn, const Page &page) {
        const Addr page_start = pn * u64(pageBytes);
        const Addr lo = std::max(page_start, image_base);
        const Addr hi =
            std::min(page_start + pageBytes, image_base + image.size());
        if (lo >= hi) // no image overlap
            return !allZero(page.data(), pageBytes);
        const size_t a = size_t(lo - page_start);
        const size_t b = size_t(hi - page_start);
        if (memcmp(page.data() + a, image.data() + (lo - image_base),
                   b - a) != 0)
            return true;
        return !allZero(page.data(), a) ||
               !allZero(page.data() + b, pageBytes - b);
    });
}

void
Memory::importPages(const std::vector<PageImage> &pages)
{
    for (const PageImage &img : pages)
        memcpy(touchPage(img.pageNumber).data(), img.bytes.data(),
               pageBytes);
}

bool
Memory::contentEquals(const Memory &other) const
{
    static const Page zeroPage = {};
    auto covered = [](const Memory &a, const Memory &b) {
        for (const Slot &s : a.slots) {
            if (s.key == 0)
                continue;
            const Page *rhs = b.lookupPage(s.key - 1);
            if (!rhs)
                rhs = &zeroPage;
            if (memcmp(s.page->data(), rhs->data(), pageBytes) != 0)
                return false;
        }
        return true;
    };
    return covered(*this, other) && covered(other, *this);
}

} // namespace rix
