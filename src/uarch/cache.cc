#include "cache.hh"

#include <bit>

namespace specsec::uarch
{

Cache::Cache(const CacheConfig &config)
    : config_(config), lines_(config.sets * config.ways)
{
    pow2_ = std::has_single_bit(config_.lineSize) &&
            std::has_single_bit(config_.sets);
    if (pow2_) {
        lineShift_ = static_cast<unsigned>(
            std::countr_zero(config_.lineSize));
        setMask_ = config_.sets - 1;
    }
}

std::size_t
Cache::setIndex(Addr paddr) const
{
    return setOf(lineOf(paddr));
}

void
Cache::insert(Addr paddr, int domain)
{
    access(paddr, domain, true);
}

bool
Cache::flushLine(Addr paddr)
{
    const Addr tag = lineOf(paddr);
    Line *const set = &lines_[setOf(tag) * config_.ways];
    bool flushed = false;
    for (std::size_t w = 0; w < config_.ways; ++w) {
        Line &line = set[w];
        if (line.valid && line.tag == tag) {
            line.valid = false;
            flushed = true;
            ++stats_.flushes;
        }
    }
    return flushed;
}

void
Cache::flushAll()
{
    for (Line &line : lines_)
        line.valid = false;
    // With every line invalid the old lastUse values can never be
    // compared again, so the use counter restarts: a fully flushed
    // cache makes the same LRU decisions as a freshly built one.
    useCounter_ = 0;
    ++stats_.flushes;
}

} // namespace specsec::uarch
