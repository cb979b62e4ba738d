#include "cache.hh"

namespace specsec::uarch
{

Cache::Cache(const CacheConfig &config)
    : config_(config), lines_(config.sets * config.ways)
{
}

std::size_t
Cache::setIndex(Addr paddr) const
{
    return (paddr / config_.lineSize) % config_.sets;
}

Cache::Line *
Cache::find(Addr paddr, int domain)
{
    const Addr tag = paddr / config_.lineSize;
    const std::size_t base = setIndex(paddr) * config_.ways;
    for (std::size_t w = 0; w < config_.ways; ++w) {
        Line &line = lines_[base + w];
        if (line.valid && line.tag == tag &&
            (!partitioned_ || line.domain == domain)) {
            return &line;
        }
    }
    return nullptr;
}

const Cache::Line *
Cache::find(Addr paddr, int domain) const
{
    return const_cast<Cache *>(this)->find(paddr, domain);
}

CacheAccess
Cache::access(Addr paddr, int domain, bool allocate)
{
    CacheAccess result;
    ++useCounter_;
    if (Line *line = find(paddr, domain)) {
        line->lastUse = useCounter_;
        result.hit = true;
        result.latency = config_.hitLatency;
        ++stats_.hits;
        return result;
    }
    result.hit = false;
    result.latency = config_.missLatency;
    ++stats_.misses;
    if (!allocate)
        return result;

    // Fill: pick an invalid way, else evict LRU.
    const std::size_t base = setIndex(paddr) * config_.ways;
    Line *victim = nullptr;
    for (std::size_t w = 0; w < config_.ways; ++w) {
        Line &line = lines_[base + w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lastUse < victim->lastUse)
            victim = &line;
    }
    if (victim->valid) {
        result.evicted = true;
        result.evictedLineAddr = victim->tag * config_.lineSize;
        ++stats_.evictions;
    }
    victim->valid = true;
    victim->tag = paddr / config_.lineSize;
    victim->domain = domain;
    victim->lastUse = useCounter_;
    return result;
}

bool
Cache::contains(Addr paddr, int domain) const
{
    return find(paddr, domain) != nullptr;
}

void
Cache::insert(Addr paddr, int domain)
{
    access(paddr, domain, true);
}

bool
Cache::flushLine(Addr paddr)
{
    const Addr tag = paddr / config_.lineSize;
    const std::size_t base = setIndex(paddr) * config_.ways;
    bool flushed = false;
    for (std::size_t w = 0; w < config_.ways; ++w) {
        Line &line = lines_[base + w];
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
