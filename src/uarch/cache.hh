/**
 * @file
 * A set-associative, metadata-only L1 data cache with LRU
 * replacement, explicit flush, timing, per-line domain tags (for
 * DAWG-style partitioning) and undo support (for CleanupSpec).
 *
 * The cache tracks *presence and timing*, not data: data always
 * comes from physical memory or the store buffer.  This is
 * sufficient for covert-channel modeling because the channel signal
 * is the hit/miss latency difference, and it keeps squashed
 * speculative state trivially consistent (the paper's point: caches
 * are micro-architectural state that is *not* rolled back).
 */

#ifndef SPECSEC_UARCH_CACHE_HH
#define SPECSEC_UARCH_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "isa.hh"

namespace specsec::uarch
{

/** Cache geometry and timing. */
struct CacheConfig
{
    std::size_t sets = 256;
    std::size_t ways = 4;
    std::size_t lineSize = 64;
    std::uint32_t hitLatency = 4;
    std::uint32_t missLatency = 200;
};

/** Result of a cache access. */
struct CacheAccess
{
    bool hit = false;
    std::uint32_t latency = 0;
    bool evicted = false; ///< an existing line was displaced
    Addr evictedLineAddr = 0;
};

/** Hit/miss statistics. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t flushes = 0;
};

/**
 * The L1 data cache.
 *
 * Domain tags: when partitioned mode is on (DAWG model), a lookup
 * from domain D only hits lines installed by domain D, reproducing
 * the "sender's state change is invisible across domains" defense.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    const CacheConfig &config() const { return config_; }

    /** Enable DAWG-style domain partitioning. */
    void setPartitioned(bool partitioned) { partitioned_ = partitioned; }
    bool partitioned() const { return partitioned_; }

    /**
     * Access the line containing @p paddr from @p domain.
     *
     * @param allocate Insert the line on a miss (a normal fill).
     *        Pass false for InvisiSpec-style invisible speculative
     *        loads: the latency is real but no state changes.
     *
     * Inline: the pipeline's loads and stores and the receiver's
     * probe sweeps call it thousands of times per grid cell.
     */
    CacheAccess
    access(Addr paddr, int domain = 0, bool allocate = true)
    {
        const Addr tag = lineOf(paddr);
        Line *const set = &lines_[setOf(tag) * config_.ways];
        CacheAccess result;
        ++useCounter_;
        if (const std::size_t way = findWay(set, tag, domain);
            way < config_.ways) {
            set[way].lastUse = useCounter_;
            result.hit = true;
            result.latency = config_.hitLatency;
            ++stats_.hits;
            return result;
        }
        result.latency = config_.missLatency;
        ++stats_.misses;
        if (!allocate)
            return result;

        // Fill: pick an invalid way, else evict LRU.
        Line *victim = set;
        for (std::size_t w = 0; w < config_.ways; ++w) {
            Line &line = set[w];
            if (!line.valid) {
                victim = &line;
                break;
            }
            if (line.lastUse < victim->lastUse)
                victim = &line;
        }
        if (victim->valid) {
            result.evicted = true;
            result.evictedLineAddr = victim->tag * config_.lineSize;
            ++stats_.evictions;
        }
        victim->valid = true;
        victim->tag = tag;
        victim->domain = domain;
        victim->lastUse = useCounter_;
        return result;
    }

    /** @return true if the line is present (no LRU/state change). */
    bool
    contains(Addr paddr, int domain = 0) const
    {
        const Addr tag = lineOf(paddr);
        return findWay(&lines_[setOf(tag) * config_.ways], tag,
                       domain) < config_.ways;
    }

    /** Insert without timing (commit-time fill for InvisiSpec). */
    void insert(Addr paddr, int domain = 0);

    /** Remove the line if present (clflush, CleanupSpec undo). */
    bool flushLine(Addr paddr);

    /** Remove every line. */
    void flushAll();

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }

    /** @return set index for an address (for Prime+Probe harness). */
    std::size_t setIndex(Addr paddr) const;

  private:
    // 24 bytes: a P+P sweep touches every line of the default
    // 1024-line cache, so the array should stay within a host L1.
    struct Line
    {
        Addr tag = 0;
        std::uint64_t lastUse = 0;
        int domain = 0;
        bool valid = false;
    };

    /** Line number (tag) of @p paddr. */
    Addr
    lineOf(Addr paddr) const
    {
        return pow2_ ? paddr >> lineShift_ : paddr / config_.lineSize;
    }

    /** Set index of line number @p tag. */
    std::size_t
    setOf(Addr tag) const
    {
        return pow2_ ? static_cast<std::size_t>(tag & setMask_)
                     : static_cast<std::size_t>(tag % config_.sets);
    }

    /** The way of @p set holding @p tag for @p domain, or ways. */
    std::size_t
    findWay(const Line *set, Addr tag, int domain) const
    {
        for (std::size_t w = 0; w < config_.ways; ++w) {
            const Line &line = set[w];
            if (line.valid && line.tag == tag &&
                (!partitioned_ || line.domain == domain)) {
                return w;
            }
        }
        return config_.ways;
    }

    CacheConfig config_;
    // Power-of-two geometries (every default and preset) index with
    // a shift and a mask; any other sets or lineSize (--cache-geom
    // accepts e.g. 100x3) divides.  Both give the same line and set.
    bool pow2_ = false;
    unsigned lineShift_ = 0;
    Addr setMask_ = 0;
    bool partitioned_ = false;
    std::vector<Line> lines_; ///< sets * ways, row-major by set
    std::uint64_t useCounter_ = 0;
    CacheStats stats_;
};

} // namespace specsec::uarch

#endif // SPECSEC_UARCH_CACHE_HH
