/**
 * @file
 * Tests for the covert-channel receivers (Section II-C) and the
 * batched receive primitive they run on.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "uarch/covert.hh"

namespace
{

using namespace specsec::uarch;

struct CovertFixture : ::testing::Test
{
    CovertFixture() : mem(1 << 23)
    {
        pt.mapRange(0, 1 << 23, PageOwner::User, true, true);
    }

    Memory mem;
    PageTable pt;
};

TEST_F(CovertFixture, FlushReloadRecoversPlantedLine)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    FlushReloadChannel ch(cpu, 0x100000, 256, kPageSize);
    ch.setup();
    // Sender: touch slot 123.
    cpu.timedAccess(0x100000 + 123 * kPageSize);
    const ChannelRecovery r = ch.recover();
    EXPECT_EQ(r.value, 123);
    EXPECT_LT(r.latencies[123], ch.threshold());
    EXPECT_GT(r.latencies[7], ch.threshold());
}

TEST_F(CovertFixture, FlushReloadNoSignalGivesMinusOne)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    FlushReloadChannel ch(cpu, 0x100000, 256, kPageSize);
    ch.setup();
    EXPECT_EQ(ch.recover().value, -1);
}

TEST_F(CovertFixture, FlushReloadMeasurementIsRepeatable)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    FlushReloadChannel ch(cpu, 0x100000, 256, kPageSize);
    ch.setup();
    cpu.timedAccess(0x100000 + 42 * kPageSize);
    EXPECT_EQ(ch.recover().value, 42);
    // The probe is non-destructive: a second read still sees it.
    EXPECT_EQ(ch.recover().value, 42);
}

TEST_F(CovertFixture, FlushReloadThreshold)
{
    CpuConfig cfg;
    cfg.cache.hitLatency = 10;
    cfg.cache.missLatency = 110;
    Cpu cpu(cfg, mem, pt);
    FlushReloadChannel ch(cpu, 0x100000, 16, kPageSize);
    EXPECT_EQ(ch.threshold(), 60u);
}

TEST_F(CovertFixture, PrimeProbeRecoversEvictedSet)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    PrimeProbeChannel ch(cpu, 0x200000, 256);
    ch.prime();
    // Sender: insert a line into set 99 (probe array is
    // set-aligned at 0x100000).
    cpu.timedAccess(0x100000 + 99 * 64);
    const ChannelRecovery r = ch.recover();
    EXPECT_EQ(r.value, 99);
}

TEST_F(CovertFixture, PrimeProbeNoSignalGivesMinusOne)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    PrimeProbeChannel ch(cpu, 0x200000, 256);
    ch.prime();
    EXPECT_EQ(ch.recover().value, -1);
}

TEST_F(CovertFixture, PrimeProbeRepeatable)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    PrimeProbeChannel ch(cpu, 0x200000, 256);
    for (int trial = 0; trial < 3; ++trial) {
        ch.prime();
        cpu.timedAccess(0x100000 + 50 * 64);
        EXPECT_EQ(ch.recover().value, 50) << "trial " << trial;
    }
}

TEST_F(CovertFixture, EvictTimeRecoversVictimSet)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    // Victim operation: one load of table[secret], timed end to end.
    const int secret = 77;
    const Addr table = 0x100000; // set-aligned
    Program victim;
    victim.emit(load8(6, 3, 0));
    victim.emit(halt());
    cpu.loadProgram(victim);
    cpu.setReg(3, table + secret * 64);

    EvictTimeChannel ch(cpu, 0x200000, 256);
    const ChannelRecovery r = ch.recover(
        [&] { cpu.warmLine(table + secret * 64); },
        [&] { return cpu.run(0).cycles; });
    EXPECT_EQ(r.value, secret);
}

TEST_F(CovertFixture, EvictTimeNoSignalWithoutVictimAccess)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    Program victim;
    victim.emit(movImm(6, 1)); // touches no memory
    victim.emit(halt());
    cpu.loadProgram(victim);
    EvictTimeChannel ch(cpu, 0x200000, 64);
    const ChannelRecovery r =
        ch.recover([] {}, [&] { return cpu.run(0).cycles; });
    EXPECT_EQ(r.value, -1);
}

TEST_F(CovertFixture, CollisionChannelRecoversSecretIndex)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    // Victim: load table[secret], then (dependently) table[guess];
    // a collision makes the second access a hit and the whole
    // operation faster.  The dependency chain mirrors real targets
    // (e.g. chained AES table lookups).
    const int secret = 142;
    const Addr table = 0x100000;
    Program victim;
    victim.emit(load8(6, 3, 0));    // table[secret]
    victim.emit(andImm(7, 6, 0));   // r7 = 0, dependent on the load
    victim.emit(add(8, 4, 7));      // guess address, dependent
    victim.emit(load8(9, 8, 0));    // table[guess]
    victim.emit(halt());
    cpu.loadProgram(victim);
    cpu.setReg(3, table + secret * 64);

    const ChannelRecovery r = recoverByCollision(
        256,
        [&] {
            for (int i = 0; i < 256; ++i)
                cpu.flushLineVirt(table + i * 64);
        },
        [&](int guess) {
            cpu.setReg(4, table + static_cast<Addr>(guess) * 64);
            return cpu.run(0).cycles;
        });
    EXPECT_EQ(r.value, secret);
}

TEST_F(CovertFixture, PartitionedCacheBlocksCrossDomainFlushReload)
{
    CpuConfig cfg;
    cfg.defense.partitionedCache = true;
    Cpu cpu(cfg, mem, pt);
    FlushReloadChannel ch(cpu, 0x100000, 256, kPageSize);
    ch.setup();
    cpu.contextSwitch(0);
    cpu.timedAccess(0x100000 + 123 * kPageSize); // victim sends
    cpu.contextSwitch(1);
    EXPECT_EQ(ch.recover().value, -1); // attacker sees nothing
}

/**
 * One seeded differential run of Cpu::timedAccesses() and
 * Cpu::flushLinesVirt() against a reference loop of single
 * PageTable::translate / lookup + Cache calls on a second cache.
 * The streams cover mapped user pages, an unmapped, a not-present,
 * a reserved-bit and a kernel-owned page under user privilege, and a
 * page 64 pages up (it shares a translation-memo entry with page 0).
 * @p fill_mode: 0 never fills, 1 always fills, 2 picks per call.
 */
void
checkBatchAgainstReference(std::size_t sets, std::size_t ways,
                           bool partitioned, int fill_mode,
                           std::uint64_t seed)
{
    constexpr Addr kBase = 0x100000;
    Memory mem(1 << 23);
    PageTable pt;
    pt.mapRange(kBase, 32 * kPageSize, PageOwner::User, true, true);
    pt.mapRange(kBase + 64 * kPageSize, kPageSize, PageOwner::User,
                true, true);
    pt.unmap(kBase + 5 * kPageSize);
    pt.setPresent(kBase + 6 * kPageSize, false);
    pt.setReservedBit(kBase + 7 * kPageSize, true);
    pt.mapRange(kBase + 8 * kPageSize, kPageSize, PageOwner::Kernel,
                false, true);

    CpuConfig cfg;
    cfg.cache.sets = sets;
    cfg.cache.ways = ways;
    cfg.defense.partitionedCache = partitioned;
    Cpu cpu(cfg, mem, pt);
    ASSERT_EQ(cpu.privilege(), Privilege::User);
    Cache ref(cfg.cache);
    ref.setPartitioned(partitioned);

    std::mt19937_64 rng(seed);
    // Pages 0..39 (32..39 unmapped) and page 64.
    const auto randomVaddr = [&] {
        const Addr page = rng() % 41;
        return kBase + (page == 40 ? 64 : page) * kPageSize +
               rng() % kPageSize;
    };
    for (int call = 0; call < 300; ++call) {
        if (rng() % 8 == 0)
            cpu.contextSwitch(static_cast<int>(rng() % 2));
        std::vector<Addr> vaddrs(1 + rng() % 96);
        for (Addr &vaddr : vaddrs)
            vaddr = randomVaddr();
        if (rng() % 8 == 0) {
            cpu.flushLinesVirt(vaddrs);
            for (const Addr vaddr : vaddrs)
                if (const Pte *pte = pt.lookup(vaddr))
                    ref.flushLine(pte->physPage * kPageSize +
                                  vaddr % kPageSize);
            continue;
        }
        const bool fill = fill_mode == 2 ? rng() % 2 == 0
                                         : fill_mode == 1;
        std::vector<std::uint32_t> got(vaddrs.size());
        cpu.timedAccesses(vaddrs, fill, got);
        for (std::size_t i = 0; i < vaddrs.size(); ++i) {
            const Translation t =
                pt.translate(vaddrs[i], AccessType::Read,
                             Privilege::User);
            const std::uint32_t want =
                t.fault != FaultKind::None || !t.paddrValid
                    ? cfg.cache.missLatency * 2
                    : ref.access(t.paddr, cpu.context(), fill).latency;
            ASSERT_EQ(got[i], want)
                << "call " << call << " access " << i << " vaddr 0x"
                << std::hex << vaddrs[i];
        }
    }

    const CacheStats &a = cpu.cache().stats();
    const CacheStats &b = ref.stats();
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.flushes, b.flushes);

    // Same contents and LRU order: one fixed filling sweep over every
    // line of the physical region hits, misses and evicts alike.
    for (Addr paddr = kBase; paddr <= kBase + 64 * kPageSize;
         paddr += cfg.cache.lineSize) {
        const CacheAccess x = cpu.cache().access(paddr, cpu.context());
        const CacheAccess y = ref.access(paddr, cpu.context());
        ASSERT_EQ(x.latency, y.latency) << "paddr 0x" << std::hex
                                        << paddr;
        ASSERT_EQ(x.evicted, y.evicted);
        ASSERT_EQ(x.evictedLineAddr, y.evictedLineAddr);
    }
}

TEST(ProbeBatch, MatchesPerLineReference)
{
    struct Geometry
    {
        std::size_t sets, ways;
    };
    std::uint64_t seed = 1;
    for (const Geometry g : {Geometry{256, 4}, Geometry{64, 4},
                             Geometry{256, 1}, Geometry{100, 3},
                             Geometry{1, 4}}) {
        for (const bool partitioned : {false, true}) {
            for (const int fill_mode : {0, 1, 2}) {
                SCOPED_TRACE(std::to_string(g.sets) + "x" +
                             std::to_string(g.ways) +
                             (partitioned ? " partitioned" : "") +
                             " fill_mode " +
                             std::to_string(fill_mode));
                checkBatchAgainstReference(g.sets, g.ways,
                                           partitioned, fill_mode,
                                           seed++);
            }
        }
    }
}

TEST_F(CovertFixture, PrimeProbeKeepsSetMajorOrder)
{
    // 256 slots on a 64-set cache: slots alias sets, so only the
    // receiver's own order (every way of slot 0, then slot 1, ...)
    // gives the reference LRU decisions and latencies.
    CpuConfig cfg;
    cfg.cache.sets = 64;
    Cpu cpu(cfg, mem, pt);
    Cache ref(cfg.cache);
    const auto referenceSweep = [&] {
        std::vector<std::uint32_t> totals(256);
        for (std::size_t s = 0; s < 256; ++s)
            for (std::size_t w = 0; w < cfg.cache.ways; ++w)
                totals[s] += ref.access(0x200000 + s * 64 +
                                        w * 64 * 64)
                                 .latency;
        return totals;
    };
    PrimeProbeChannel ch(cpu, 0x200000, 256);
    ch.prime();
    referenceSweep();
    cpu.timedAccess(0x100000 + 7 * 64); // the sender
    ref.access(0x100000 + 7 * 64);
    EXPECT_EQ(ch.recover().latencies, referenceSweep());
    EXPECT_EQ(cpu.cache().stats().hits, ref.stats().hits);
    EXPECT_EQ(cpu.cache().stats().evictions, ref.stats().evictions);
}

TEST_F(CovertFixture, FaultingProbeLeavesCacheAlone)
{
    CpuConfig cfg;
    Cpu cpu(cfg, mem, pt);
    pt.setPresent(0x100000, false);
    const Addr line = 0x100040;
    std::uint32_t latency = 0;
    cpu.timedAccesses({&line, 1}, true, {&latency, 1});
    EXPECT_EQ(latency, cfg.cache.missLatency * 2);
    EXPECT_FALSE(cpu.cache().contains(line));
    EXPECT_EQ(cpu.cache().stats().misses, 0u);
    // The page table changes between calls: no translation survives.
    pt.setPresent(0x100000, true);
    EXPECT_EQ(cpu.timedAccess(line), cfg.cache.missLatency);
    EXPECT_TRUE(cpu.cache().contains(line));
}

} // namespace
