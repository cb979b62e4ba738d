/**
 * @file
 * Covert-channel receivers (paper Section II-C).
 *
 * Flush+Reload: hit-and-access based -- flush shared lines, let the
 * sender run, reload and time; a fast slot reveals the secret.
 *
 * Prime+Probe: miss-and-access based -- fill cache sets with the
 * receiver's own lines, let the sender run, probe and time; a slow
 * set reveals the secret.
 *
 * Both are implemented at harness level using the CPU's committed
 * access helpers, mirroring what the receiver process would do.
 * Each receiver builds its address list once (the cache geometry is
 * fixed per Cpu) and hands it to Cpu::timedAccesses() /
 * Cpu::flushLinesVirt() in the receiver's access order.
 */

#ifndef SPECSEC_UARCH_COVERT_HH
#define SPECSEC_UARCH_COVERT_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "cpu.hh"

namespace specsec::uarch
{

/** Result of reading the channel once. */
struct ChannelRecovery
{
    int value = -1; ///< recovered symbol, -1 when no signal
    std::vector<std::uint32_t> latencies; ///< per-slot timing
};

/**
 * Flush+Reload over a shared probe array of @p slots lines spaced
 * @p stride bytes apart (page stride per the paper, to avoid
 * prefetch effects).
 */
class FlushReloadChannel
{
  public:
    FlushReloadChannel(Cpu &cpu, Addr probe_base,
                       std::size_t slots = 256,
                       Addr stride = kPageSize);

    /** Step 1(a): flush every probe line. */
    void setup();

    /** Step 5: reload every probe line and time it. */
    ChannelRecovery recover();

    Addr probeBase() const { return probeBase_; }
    Addr stride() const { return stride_; }
    std::size_t slots() const { return slots_; }

    /** Latency below this is a hit. */
    std::uint32_t threshold() const;

  private:
    Cpu &cpu_;
    Addr probeBase_;
    std::size_t slots_;
    Addr stride_;
    std::vector<Addr> lines_; ///< slot i at lines_[i]
};

/**
 * Prime+Probe over the L1: the receiver owns an eviction array
 * covering every set; the sender's single line fill evicts one of
 * the receiver's lines.
 *
 * The sender must touch `probe_base + value * lineSize` where
 * probe_base is set-aligned, so that the victim's value selects a
 * cache set.
 */
class PrimeProbeChannel
{
  public:
    PrimeProbeChannel(Cpu &cpu, Addr evict_base,
                      std::size_t slots = 256);

    /** Step 1(a): prime every monitored set with receiver lines. */
    void prime();

    /** Step 5: probe every set; the slow one carries the value. */
    ChannelRecovery recover();

    std::size_t slots() const { return slots_; }

  private:
    Cpu &cpu_;
    std::size_t slots_;
    std::vector<Addr> lines_; ///< every way of set 0, then set 1, ...
    std::vector<std::uint32_t> latencies_; ///< per entry of lines_
};

/**
 * Evict+Time (miss-and-operation based, paper Section II-C): the
 * receiver evicts one candidate cache set, times the victim's whole
 * operation, and infers which set the victim uses from the slowdown.
 */
class EvictTimeChannel
{
  public:
    EvictTimeChannel(Cpu &cpu, Addr evict_base,
                     std::size_t slots = 256);

    /** Fill every way of @p set (< slots) with receiver lines. */
    void evictSet(std::size_t set);

    /**
     * Sweep all candidate sets.
     *
     * @param prepare   re-establishes the victim's warm state
     *                  before each trial.
     * @param victim_op runs the victim operation, returning its
     *                  duration in cycles.
     * @return the victim's set (slowest trial), or -1 if no trial
     *         stood out.
     */
    ChannelRecovery recover(const std::function<void()> &prepare,
                            const std::function<std::uint64_t()>
                                &victim_op);

  private:
    Cpu &cpu_;
    std::size_t slots_;
    std::vector<Addr> lines_; ///< every way of set 0, then set 1, ...
    std::vector<std::uint32_t> latencies_; ///< one set's ways
};

/**
 * Cache-collision timing (hit-and-operation based): the victim's
 * operation is faster when two of its internal accesses collide on
 * a line; the receiver sweeps a guess input and takes the fastest.
 *
 * @param slots     number of guesses.
 * @param prepare   resets cache state before each trial.
 * @param victim_op runs the victim with the guess, returning its
 *                  duration in cycles.
 */
ChannelRecovery
recoverByCollision(std::size_t slots,
                   const std::function<void()> &prepare,
                   const std::function<std::uint64_t(int)> &victim_op);

} // namespace specsec::uarch

#endif // SPECSEC_UARCH_COVERT_HH
