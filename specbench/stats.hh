/**
 * @file
 * Sample statistics and span tracing for the specsec benchmark.
 *
 * Percentiles use linear interpolation between closest ranks (the
 * "linear" method of numpy and of Python's statistics.quantiles
 * with method="inclusive"), so a reported p50/p90/p99 can be
 * re-derived from the raw samples by any of those tools.
 *
 * Spans are recorded by the benchmark's own code around calls into
 * one layer's public functions.  They are kept in memory and
 * written out once, when the run ends.  A span's self time is its
 * duration minus the part of its interval that its children cover;
 * children running in parallel (worker or client threads) are
 * merged first, so overlapping children are not subtracted twice.
 */

#ifndef SPECBENCH_STATS_HH
#define SPECBENCH_STATS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace specbench
{

/** @p q-quantile (0 <= q <= 1) of @p samples; 0 when empty. */
double percentile(std::vector<double> samples, double q);

/** A timing reported as median and one tail percentile. */
struct Summary
{
    double p50 = 0.0;
    double tail = 0.0;
    double tailQ = 0.0;    ///< which quantile @c tail is
    std::size_t count = 0; ///< samples the summary rests on
    std::size_t blocks = 1;

    /** Samples beyond the tail quantile, over all blocks. */
    std::size_t beyondTail() const;
};

/**
 * Median of @p samples, and their @p tail_q quantile taken as the
 * median over @p blocks consecutive equal-count blocks of the
 * samples (in recording order) of each block's quantile.  On a
 * shared host a slowdown lasting seconds then moves one block's
 * tail, not the run's; with one block it is the plain quantile.
 */
Summary summarize(const std::vector<double> &samples, double tail_q,
                  std::size_t blocks = 1);

/** Seconds on the steady clock since an arbitrary fixed epoch. */
double nowSeconds();

/** One traced interval. */
struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t pass = 0;   ///< round / request the span belongs to
    std::string name;
    double start = 0.0; ///< seconds, nowSeconds() clock
    double end = 0.0;
};

/**
 * In-memory span recorder.  Disabled recorders cost one branch per
 * call, so the untraced run pays (almost) nothing for the calls.
 * Thread-safe: serve-warm clients record from their own threads.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Open a span; @return its id (0 when disabled). */
    std::uint64_t open(const std::string &name,
                       std::uint64_t parent, std::uint64_t pass);
    void close(std::uint64_t id);

    std::vector<Span> spans() const;

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< index = id - 1
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name,
               std::uint64_t parent = 0, std::uint64_t pass = 0)
        : tracer_(tracer), id_(tracer.open(name, parent, pass))
    {
    }
    ~ScopedSpan() { tracer_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::uint64_t id_;
};

/** Self time (seconds) of every span, indexed like @p spans. */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Per span name: count, total and self seconds. */
struct SpanTotals
{
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
};

std::map<std::string, SpanTotals>
totalsByName(const std::vector<Span> &spans);

/** The spans plus their per-name totals as one JSON document. */
std::string traceJson(const std::vector<Span> &spans);

} // namespace specbench

#endif // SPECBENCH_STATS_HH
