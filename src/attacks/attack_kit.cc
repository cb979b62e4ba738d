#include "attack_kit.hh"

#include <bitset>

#include "phase.hh"
#include "snapshot.hh"

namespace specsec::attacks
{

namespace
{

thread_local uarch::CpuStats tlsLastStats;
thread_local std::uint64_t tlsScenarioDeaths = 0;

} // namespace

const uarch::CpuStats &
lastScenarioStats()
{
    return tlsLastStats;
}

std::uint64_t
scenarioDeathCount()
{
    return tlsScenarioDeaths;
}

Scenario::~Scenario()
{
    tlsLastStats = cpu_->stats();
    ++tlsScenarioDeaths;
    ScopedPhaseTimer timer(Phase::Teardown);
    // The Cpu references the arena's memory/page table: destroy it
    // before the arena goes back to the pool for the next fork.
    cpu_.reset();
    releaseScenarioArena(std::move(arena_));
}

Scenario::Scenario(const CpuConfig &config)
{
    ScopedPhaseTimer timer(Phase::Build);
    arena_ = acquireScenarioArena();
    // The canonical layout (page table + zeroed memory) comes with
    // the arena, forked from the ScenarioSnapshot baseline — see
    // snapshot.cc for the mapRange calls that used to live here.
    cpu_ = std::make_unique<Cpu>(config, arena_->mem, arena_->pt);
}

uarch::Memory &
Scenario::mem()
{
    return arena_->mem;
}

uarch::PageTable &
Scenario::pageTable()
{
    return arena_->pt;
}

void
Scenario::plantBytes(Addr vaddr, const std::vector<std::uint8_t> &data)
{
    for (std::size_t i = 0; i < data.size(); ++i)
        arena_->mem.write8(vaddr + i, data[i]);
}

std::vector<std::uint8_t>
Scenario::readBytes(Addr vaddr, std::size_t len) const
{
    std::vector<std::uint8_t> out(len);
    for (std::size_t i = 0; i < len; ++i)
        out[i] = arena_->mem.read8(vaddr + i);
    return out;
}

ChannelHarness::ChannelHarness(Cpu &cpu, CovertChannelKind kind)
    : cpu_(cpu), kind_(kind)
{
    if (kind_ == CovertChannelKind::FlushReload)
        fr_.emplace(cpu, Layout::kProbeArray, kSlots, uarch::kPageSize);
    else
        pp_.emplace(cpu, Layout::kEvictArray, kSlots);
}

void
ChannelHarness::setup()
{
    if (kind_ == CovertChannelKind::FlushReload)
        fr_->setup();
    else
        pp_->prime();
}

int
ChannelHarness::recover(const std::vector<int> &exclude)
{
    const uarch::ChannelRecovery r =
        kind_ == CovertChannelKind::FlushReload ? fr_->recover()
                                                : pp_->recover();
    std::bitset<kSlots> excluded;
    for (const int slot : exclude)
        if (slot >= 0 && static_cast<std::size_t>(slot) < kSlots)
            excluded.set(static_cast<std::size_t>(slot));
    int best = -1;
    if (kind_ == CovertChannelKind::FlushReload) {
        std::uint32_t best_lat = fr_->threshold();
        for (std::size_t i = 0; i < r.latencies.size(); ++i) {
            if (excluded[i])
                continue;
            if (r.latencies[i] < best_lat) {
                best_lat = r.latencies[i];
                best = static_cast<int>(i);
            }
        }
    } else {
        const uarch::CacheConfig &c = cpu_.config().cache;
        const std::uint32_t floor =
            c.ways * c.hitLatency + c.missLatency - c.hitLatency;
        std::uint32_t best_lat = floor - 1;
        for (std::size_t i = 0; i < r.latencies.size(); ++i) {
            if (excluded[i])
                continue;
            if (r.latencies[i] > best_lat) {
                best_lat = r.latencies[i];
                best = static_cast<int>(i);
            }
        }
    }
    return best;
}

int
ChannelHarness::noiseSet(Addr vaddr) const
{
    if (kind_ != CovertChannelKind::PrimeProbe)
        return -1;
    const uarch::CacheConfig &c = cpu_.config().cache;
    return static_cast<int>((vaddr / c.lineSize) % c.sets);
}

unsigned
ChannelHarness::sendShift() const
{
    // Flush+Reload probes page-strided slots; Prime+Probe encodes
    // the byte as a cache set (line stride).
    return kind_ == CovertChannelKind::FlushReload ? 12 : 6;
}

AttackResult
scoreResult(std::string name, const std::vector<int> &recovered,
            const std::vector<std::uint8_t> &expected,
            std::uint64_t guest_cycles,
            std::uint64_t transient_forwards)
{
    AttackResult r;
    r.name = std::move(name);
    r.recovered = recovered;
    r.expected = expected;
    r.guestCycles = guest_cycles;
    r.transientForwards = transient_forwards;
    std::size_t match = 0;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        if (i < recovered.size() &&
            recovered[i] == static_cast<int>(expected[i])) {
            ++match;
        }
    }
    r.accuracy = expected.empty()
                     ? 0.0
                     : static_cast<double>(match) / expected.size();
    r.leaked = r.accuracy >= 0.9;
    return r;
}

std::vector<std::uint8_t>
defaultSecret(std::size_t len)
{
    static const char kText[] =
        "SQUEAMISH OSSIFRAGE: the magic words for transient leaks";
    std::vector<std::uint8_t> secret(len);
    for (std::size_t i = 0; i < len; ++i)
        secret[i] = static_cast<std::uint8_t>(
            kText[i % (sizeof(kText) - 1)]);
    return secret;
}

} // namespace specsec::attacks
