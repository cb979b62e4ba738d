/**
 * @file
 * OutcomeSink: the streaming consumer side of the campaign engine.
 *
 * CampaignEngine::run pushes every ScenarioOutcome into the caller's
 * sinks as its backing unique execution completes, instead of
 * collecting a whole CampaignReport in memory first.  That is what
 * lets very large grids export incrementally (src/tool/
 * stream_export.hh), report live progress, and fan out across
 * processes as shards whose reports merge afterwards.
 *
 * Contract, per engine run:
 *   - begin(header) once, from the driving thread, before any work;
 *     the header names the spec, the full-grid shape, and exactly
 *     which gridIndices this (shard of a) run will emit.
 *   - consume(outcome) once per grid point the run covers — from
 *     any worker thread, in completion order.  Implementations must
 *     be thread-safe; outcomes carry their gridIndex, so sinks that
 *     need grid order either reorder on the fly (stream_export) or
 *     place by index and flush ordered at end (ReportSink).
 *   - end(footer) once, from the driving thread, after the worker
 *     pool drains, with the run's provenance counters.
 */

#ifndef SPECSEC_CAMPAIGN_SINK_HH
#define SPECSEC_CAMPAIGN_SINK_HH

#include <cstdio>
#include <mutex>
#include <optional>

#include "campaign.hh"

namespace specsec::campaign
{

/** Everything known about a run before the first cell executes. */
struct CampaignHeader
{
    std::string name;
    std::vector<std::string> rowLabels;
    std::vector<std::string> colLabels;

    /// Full-grid counts (identical across every shard of one spec).
    std::size_t expandedCount = 0;
    std::size_t uniqueCount = 0;

    /// The expanded gridIndices this run will emit, ascending (grid
    /// order).  Covers the whole grid when shardCount == 1.
    std::vector<std::size_t> gridIndices;

    /// This run's share of the deduplicated work.
    std::size_t shardUniqueCount = 0;

    std::size_t shardIndex = 0;
    std::size_t shardCount = 1;
    unsigned workers = 1;
};

/** Run provenance, known only after the worker pool drains. */
struct CampaignFooter
{
    std::size_t executedCount = 0;
    std::size_t cacheHits = 0;
    double wallMillis = 0.0;
    double scenariosPerSecond = 0.0;

    /// Verdict-backend counters (see CampaignReport for semantics);
    /// all zero under the plain simulator backend.
    std::size_t modelDecided = 0;
    std::size_t modelUndecided = 0;
    std::size_t disagreements = 0;
};

/** Receives a run's outcomes as workers complete them. */
class OutcomeSink
{
  public:
    virtual ~OutcomeSink() = default;

    virtual void begin(const CampaignHeader &header);
    virtual void consume(const ScenarioOutcome &outcome) = 0;
    virtual void end(const CampaignFooter &footer);
};

/**
 * The sink the classic collect-then-return API is built on:
 * accumulates a CampaignReport.  Outcomes are placed by gridIndex as
 * they arrive (any order, any thread) and flushed into grid order at
 * end(), so the finished report is byte-identical to what the
 * pre-streaming engine produced — including for shard runs, where
 * the report covers only the shard's grid points.
 */
class ReportSink : public OutcomeSink
{
  public:
    void begin(const CampaignHeader &header) override;
    void consume(const ScenarioOutcome &outcome) override;
    void end(const CampaignFooter &footer) override;

    /** Valid after end(). */
    const CampaignReport &report() const { return report_; }
    CampaignReport takeReport() { return std::move(report_); }

  private:
    std::mutex mutex_;
    CampaignReport report_;
    /// Slot per emitted grid point, indexed by position in the
    /// header's gridIndices list.
    std::vector<std::optional<ScenarioOutcome>> slots_;
    std::unordered_map<std::size_t, std::size_t> slotOf_;
};

/**
 * Live progress to a stream (default stderr): a counter line
 * rewritten in place every @p every completions and at the end.
 * Purely observational — attaches to any run without touching the
 * deterministic outputs.
 */
class ProgressSink : public OutcomeSink
{
  public:
    explicit ProgressSink(std::FILE *out = stderr,
                          std::size_t every = 16)
        : out_(out), every_(every == 0 ? 1 : every)
    {
    }

    void begin(const CampaignHeader &header) override;
    void consume(const ScenarioOutcome &outcome) override;
    void end(const CampaignFooter &footer) override;

    std::size_t completed() const;

  private:
    void render(std::size_t done);

    mutable std::mutex mutex_;
    std::FILE *out_;
    std::size_t every_;
    std::size_t total_ = 0;
    std::size_t done_ = 0;
    std::string name_;
};

} // namespace specsec::campaign

#endif // SPECSEC_CAMPAIGN_SINK_HH
