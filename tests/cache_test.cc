/**
 * @file
 * Tests for the L1 cache model: hit/miss timing, LRU replacement,
 * flushes, non-allocating probes and DAWG-style domain partitioning.
 */

#include <gtest/gtest.h>

#include "uarch/cache.hh"

namespace
{

using namespace specsec::uarch;

CacheConfig
smallConfig()
{
    CacheConfig c;
    c.sets = 4;
    c.ways = 2;
    c.lineSize = 64;
    c.hitLatency = 4;
    c.missLatency = 200;
    return c;
}

TEST(Cache, MissThenHit)
{
    Cache c(smallConfig());
    const CacheAccess first = c.access(0x1000);
    EXPECT_FALSE(first.hit);
    EXPECT_EQ(first.latency, 200u);
    const CacheAccess second = c.access(0x1000);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(second.latency, 4u);
}

TEST(Cache, SameLineSharesEntry)
{
    Cache c(smallConfig());
    c.access(0x1000);
    EXPECT_TRUE(c.access(0x103f).hit); // same 64B line
    EXPECT_FALSE(c.access(0x1040).hit); // next line
}

TEST(Cache, SetIndexComputation)
{
    Cache c(smallConfig());
    EXPECT_EQ(c.setIndex(0), 0u);
    EXPECT_EQ(c.setIndex(64), 1u);
    EXPECT_EQ(c.setIndex(64 * 4), 0u); // wraps at 4 sets
}

TEST(Cache, SetIndexMatchesDivisionForEveryGeometry)
{
    // Power-of-two geometries index by shift and mask, the rest by
    // division; both must name the same set.
    for (const std::size_t sets : {1u, 64u, 100u, 256u}) {
        for (const std::size_t line : {32u, 64u, 96u}) {
            CacheConfig cfg = smallConfig();
            cfg.sets = sets;
            cfg.lineSize = line;
            const Cache c(cfg);
            for (Addr paddr = 0; paddr < 1 << 20; paddr += 37)
                ASSERT_EQ(c.setIndex(paddr), (paddr / line) % sets)
                    << sets << " sets, line " << line << ", paddr "
                    << paddr;
        }
    }
}

TEST(Cache, LruEviction)
{
    Cache c(smallConfig()); // 2 ways
    // Three lines in set 0: 0x0, 0x100, 0x200 (all set index 0).
    c.access(0x000);
    c.access(0x100);
    c.access(0x000); // touch: 0x100 becomes LRU
    const CacheAccess third = c.access(0x200);
    EXPECT_FALSE(third.hit);
    EXPECT_TRUE(third.evicted);
    EXPECT_EQ(third.evictedLineAddr, 0x100u);
    EXPECT_TRUE(c.contains(0x000));
    EXPECT_FALSE(c.contains(0x100));
}

TEST(Cache, NonAllocatingProbe)
{
    Cache c(smallConfig());
    const CacheAccess probe = c.access(0x1000, 0, false);
    EXPECT_FALSE(probe.hit);
    EXPECT_FALSE(c.contains(0x1000)); // no state change
}

TEST(Cache, FlushLine)
{
    Cache c(smallConfig());
    c.access(0x1000);
    EXPECT_TRUE(c.flushLine(0x1000));
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_FALSE(c.flushLine(0x1000)); // already gone
}

TEST(Cache, FlushAll)
{
    Cache c(smallConfig());
    c.access(0x0);
    c.access(0x40);
    c.flushAll();
    EXPECT_FALSE(c.contains(0x0));
    EXPECT_FALSE(c.contains(0x40));
}

TEST(Cache, FlushAllRestoresLruParityWithFreshCache)
{
    // flushAll() also rewinds the LRU use counter, so a flushed
    // cache must make the same eviction decisions as a
    // freshly-constructed one: replayed accesses evict identically.
    Cache flushed(smallConfig());
    // Age the counter well past anything the replay will reach.
    for (Addr a = 0; a < 64 * 64; a += 64)
        flushed.access(a);
    flushed.flushAll();

    Cache fresh(smallConfig());
    const Addr pattern[] = {0x000, 0x100, 0x000, 0x200,
                            0x100, 0x300, 0x200};
    for (const Addr a : pattern) {
        const CacheAccess f = flushed.access(a);
        const CacheAccess g = fresh.access(a);
        EXPECT_EQ(f.hit, g.hit) << "addr " << a;
        EXPECT_EQ(f.evicted, g.evicted) << "addr " << a;
        if (f.evicted)
            EXPECT_EQ(f.evictedLineAddr, g.evictedLineAddr);
    }
}

TEST(Cache, Stats)
{
    Cache c(smallConfig());
    c.access(0x0);
    c.access(0x0);
    c.access(0x40);
    c.flushLine(0x40);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 2u);
    EXPECT_EQ(c.stats().flushes, 1u);
    c.resetStats();
    EXPECT_EQ(c.stats().hits, 0u);
}

TEST(Cache, InsertWithoutTiming)
{
    Cache c(smallConfig());
    c.insert(0x2000);
    EXPECT_TRUE(c.contains(0x2000));
}

TEST(Cache, PartitionedDomainsDoNotShareHits)
{
    Cache c(smallConfig());
    c.setPartitioned(true);
    c.access(0x1000, /*domain=*/0);
    EXPECT_TRUE(c.contains(0x1000, 0));
    EXPECT_FALSE(c.contains(0x1000, 1)); // DAWG: invisible next door
    EXPECT_FALSE(c.access(0x1000, 1).hit);
}

TEST(Cache, UnpartitionedIgnoresDomain)
{
    Cache c(smallConfig());
    c.access(0x1000, 0);
    EXPECT_TRUE(c.contains(0x1000, 1));
}

TEST(Cache, DifferentSetsDoNotConflict)
{
    Cache c(smallConfig());
    for (Addr a = 0; a < 4 * 64; a += 64)
        c.access(a);
    for (Addr a = 0; a < 4 * 64; a += 64)
        EXPECT_TRUE(c.contains(a));
}

TEST(Cache, ConfigurableLatencies)
{
    CacheConfig cfg = smallConfig();
    cfg.hitLatency = 7;
    cfg.missLatency = 99;
    Cache c(cfg);
    EXPECT_EQ(c.access(0).latency, 99u);
    EXPECT_EQ(c.access(0).latency, 7u);
}

} // namespace
