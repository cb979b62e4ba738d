#include "covert.hh"

#include <algorithm>

namespace specsec::uarch
{

namespace
{

/**
 * A receiver's eviction lines for cache sets [0, @p slots): set s,
 * way w at base + s * lineSize + w * (sets * lineSize), all ways of
 * one set before the next set -- the order the receiver touches them.
 * Walking way by way instead would reorder accesses, which changes
 * LRU decisions whenever slots exceed the number of sets.
 */
std::vector<Addr>
evictionLines(const CacheConfig &c, Addr base, std::size_t slots)
{
    const Addr way_stride = c.sets * c.lineSize;
    std::vector<Addr> lines;
    lines.reserve(slots * c.ways);
    for (std::size_t s = 0; s < slots; ++s)
        for (std::size_t w = 0; w < c.ways; ++w)
            lines.push_back(base + s * c.lineSize + w * way_stride);
    return lines;
}

} // anonymous namespace

FlushReloadChannel::FlushReloadChannel(Cpu &cpu, Addr probe_base,
                                       std::size_t slots, Addr stride)
    : cpu_(cpu), probeBase_(probe_base), slots_(slots), stride_(stride),
      lines_(slots)
{
    for (std::size_t i = 0; i < slots_; ++i)
        lines_[i] = probeBase_ + i * stride_;
}

std::uint32_t
FlushReloadChannel::threshold() const
{
    const CacheConfig &c = cpu_.config().cache;
    return (c.hitLatency + c.missLatency) / 2;
}

void
FlushReloadChannel::setup()
{
    cpu_.flushLinesVirt(lines_);
}

ChannelRecovery
FlushReloadChannel::recover()
{
    ChannelRecovery r;
    r.latencies.resize(slots_);
    cpu_.timedAccesses(lines_, false, r.latencies);
    std::uint32_t best = UINT32_MAX;
    for (std::size_t i = 0; i < slots_; ++i) {
        const std::uint32_t lat = r.latencies[i];
        if (lat < best) {
            best = lat;
            r.value = static_cast<int>(i);
        }
    }
    if (best > threshold())
        r.value = -1; // every slot missed: no signal
    return r;
}

PrimeProbeChannel::PrimeProbeChannel(Cpu &cpu, Addr evict_base,
                                     std::size_t slots)
    : cpu_(cpu), slots_(slots),
      lines_(evictionLines(cpu.config().cache, evict_base, slots)),
      latencies_(lines_.size())
{
}

void
PrimeProbeChannel::prime()
{
    cpu_.timedAccesses(lines_, true, latencies_);
}

ChannelRecovery
PrimeProbeChannel::recover()
{
    const CacheConfig &c = cpu_.config().cache;
    cpu_.timedAccesses(lines_, true, latencies_);
    ChannelRecovery r;
    r.latencies.resize(slots_);
    std::uint32_t best = 0;
    for (std::size_t s = 0; s < slots_; ++s) {
        std::uint32_t total = 0;
        for (std::size_t w = 0; w < c.ways; ++w)
            total += latencies_[s * c.ways + w];
        r.latencies[s] = total;
        if (total > best) {
            best = total;
            r.value = static_cast<int>(s);
        }
    }
    // A set the sender evicted shows at least one miss.
    if (best < c.ways * c.hitLatency + c.missLatency - c.hitLatency)
        r.value = -1;
    return r;
}

EvictTimeChannel::EvictTimeChannel(Cpu &cpu, Addr evict_base,
                                   std::size_t slots)
    : cpu_(cpu), slots_(slots),
      lines_(evictionLines(cpu.config().cache, evict_base, slots)),
      latencies_(cpu.config().cache.ways)
{
}

void
EvictTimeChannel::evictSet(std::size_t set)
{
    const std::size_t ways = latencies_.size();
    cpu_.timedAccesses(std::span(lines_).subspan(set * ways, ways),
                       true, latencies_);
}

ChannelRecovery
EvictTimeChannel::recover(const std::function<void()> &prepare,
                          const std::function<std::uint64_t()>
                              &victim_op)
{
    ChannelRecovery r;
    r.latencies.resize(slots_);
    std::uint64_t best = 0;
    std::uint64_t floor = UINT64_MAX;
    for (std::size_t s = 0; s < slots_; ++s) {
        prepare();
        evictSet(s);
        const std::uint64_t t = victim_op();
        r.latencies[s] = static_cast<std::uint32_t>(t);
        floor = std::min(floor, t);
        if (t > best) {
            best = t;
            r.value = static_cast<int>(s);
        }
    }
    // No slowdown above the common-case floor: no signal.
    if (best < floor + cpu_.config().cache.missLatency / 2)
        r.value = -1;
    return r;
}

ChannelRecovery
recoverByCollision(std::size_t slots,
                   const std::function<void()> &prepare,
                   const std::function<std::uint64_t(int)> &victim_op)
{
    ChannelRecovery r;
    r.latencies.resize(slots);
    std::uint64_t best = UINT64_MAX;
    std::uint64_t ceiling = 0;
    for (std::size_t g = 0; g < slots; ++g) {
        prepare();
        const std::uint64_t t = victim_op(static_cast<int>(g));
        r.latencies[g] = static_cast<std::uint32_t>(t);
        ceiling = std::max(ceiling, t);
        if (t < best) {
            best = t;
            r.value = static_cast<int>(g);
        }
    }
    if (ceiling == best)
        r.value = -1; // no collision speedup observed
    return r;
}

} // namespace specsec::uarch
