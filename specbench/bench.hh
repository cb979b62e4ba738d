/**
 * @file
 * The specsec benchmark's workloads and layer probes.
 *
 * Three workloads drive the library through its public API, each
 * generated in one process from a seed that permutes order only:
 *
 *   - gate:       every registered regress spec under the simulator
 *                 and static backends, checked against golden/ and
 *                 the static divergence pins (what CI runs);
 *   - sweep:      the 6912-cell defense-matrix knob sweep with a
 *                 cold cache and a streamed JSONL export, serial and
 *                 at nproc workers (what a researcher runs);
 *   - serve-warm: a closed loop of serve::Client submits against an
 *                 in-process serve::Server whose cache already holds
 *                 every key (what a warm daemon does).
 *
 * Each workload repeats *rounds* for the measured time.  A round is
 * one full gate pass, one sweep pass, or one submit -> done batch,
 * run once at full concurrency (wN) and once serially (w1).  The
 * probes (probes.cc) time single layer calls on the workload's own
 * cells for the traced run's per-layer metrics.
 */

#ifndef SPECBENCH_BENCH_HH
#define SPECBENCH_BENCH_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hh"
#include "fingerprint.hh"
#include "stats.hh"

namespace specbench
{

namespace campaign = specsec::campaign;

/** Command-line settings of one benchmark process. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Tiny run lengths: one round per phase, probes on a few cells.
    bool smoke = false;
    std::string goldenDir = "golden";
    std::string fingerprintPath;
    std::string workDir; ///< scratch files (exports, cache, trace)
    unsigned nproc = 1;
};

/** Output-check accounting: every check is attempted once. */
class Checks
{
  public:
    void pass(std::uint64_t n = 1) { attempted_ += n; }
    void fail(const std::string &message);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::atomic<std::uint64_t> attempted_{0};
    std::atomic<std::uint64_t> failed_{0};
    std::mutex mutex_; ///< serializes failure messages
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a measured stretch of rounds observed. */
struct Rounds
{
    std::vector<double> roundMsN; ///< wN round latencies
    std::vector<double> rateN;    ///< wN cells/s, one per round or phase
    std::vector<double> rate1;    ///< w1 cells/s, likewise
    /// @name Layer observations (filled on every run, read traced).
    /// @{
    double busySeconds = 0.0;   ///< sum of executed cells' wall time
    double workerSeconds = 0.0; ///< workers x wN round wall
    std::uint64_t cacheLookups = 0;
    std::uint64_t cacheHits = 0;
    std::vector<double> firstResultMs;
    /// @}
};

/** One unique cell of a workload. */
struct Cell
{
    specsec::core::AttackVariant variant{};
    campaign::CpuConfig config;
    campaign::AttackOptions options;
    std::string key;
};

/** A workload: set up, then measured for a stretch of time. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** One complete set-up; repeated through the run. */
    virtual void setup() = 0;

    /** Release what setup() started (untimed, before the next one). */
    virtual void teardown() {}

    /** Rounds until @p seconds pass (at least one per phase). */
    virtual Rounds measure(double seconds, Tracer &tracer) = 0;

    /** Every distinct cell the workload computes or serves. */
    virtual std::vector<Cell> cells() const = 0;

    /** Its specs (dedupGrid probe) and submit key lists. */
    virtual std::vector<campaign::ScenarioSpec> specs() const = 0;
    virtual std::vector<std::vector<std::string>>
    submits() const = 0;
};

std::unique_ptr<Workload> makeWorkload(const Options &options,
                                       Checks &checks);

/** Names accepted by makeWorkload. */
std::vector<std::string> workloadNames();

/** The sweep grid with axis-value order permuted by @p seed. */
campaign::ScenarioSpec sweepSpec(std::uint64_t seed);

/** The distinct cells of @p specs, first-occurrence order. */
std::vector<Cell> uniqueCells(
    const std::vector<campaign::ScenarioSpec> &specs);

/** In-place Fisher-Yates shuffle driven by @p seed. */
template <typename T>
void permute(std::vector<T> &items, std::uint64_t seed);

/**
 * Simulate @p cells at @p workers and fingerprint them (record mode
 * and the seed self-test).  False when a key fails to run or two
 * keys collide.
 */
bool fingerprintCells(const std::vector<Cell> &cells, unsigned workers,
                      FingerprintSet &out, std::string *error);

/** Per-layer metrics from single timed calls (traced run). */
std::vector<Metric> runProbes(const Options &options,
                              const Workload &workload,
                              const FingerprintSet &prints,
                              Checks &checks, Tracer &tracer);

std::uint64_t splitmix64(std::uint64_t &state);

template <typename T>
void
permute(std::vector<T> &items, std::uint64_t seed)
{
    std::uint64_t state = seed;
    for (std::size_t i = items.size(); i > 1; --i) {
        const std::size_t j = splitmix64(state) % i;
        std::swap(items[i - 1], items[j]);
    }
}

} // namespace specbench

#endif // SPECBENCH_BENCH_HH
