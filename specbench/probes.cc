/**
 * @file
 * Layer probes: single timed calls into one layer's public
 * functions, on the cells and configs of the workload being run.
 * They measure what a workload's top-level call hides (covert-channel
 * prime/recover, translate, ResultCache::lookup, the verdict judges,
 * JSONL records, protocol parsing) and feed the traced run's
 * per-layer metrics.  Every probe call is also a span.
 */

#include <cstdio>
#include <unordered_set>

#include "attacks/phase.hh"
#include "attacks/runner.hh"
#include "attacks/snapshot.hh"
#include "core/variants.hh"
#include "bench.hh"
#include "regress/golden.hh"
#include "regress/specs.hh"
#include "serve/protocol.hh"
#include "tool/report.hh"
#include "tool/stream_export.hh"
#include "uarch/covert.hh"
#include "verdict/model.hh"
#include "verdict/static_verdict.hh"

namespace specbench
{

namespace attacks = specsec::attacks;
namespace core = specsec::core;
namespace regress = specsec::regress;
namespace serve = specsec::serve;
namespace tool = specsec::tool;
namespace uarch = specsec::uarch;
namespace verdict = specsec::verdict;

namespace
{

/// Keeps the results of probed calls observable to the compiler.
volatile std::uint64_t gSink = 0;

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Median over @p reps repetitions of @p fn's wall seconds. */
template <typename Fn>
double
medianSeconds(int reps, Fn &&fn)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const double t0 = nowSeconds();
        fn();
        t.push_back(nowSeconds() - t0);
    }
    return percentile(t, 0.5);
}

struct Probe
{
    std::vector<Metric> &out;
    Tracer &tracer;

    void
    add(const std::string &name, double value, const char *unit)
    {
        out.push_back({name, value, unit});
    }
};

/** The serial pass: runVariant per cell, phase profile around it. */
void
probeCells(Probe &p, const std::vector<Cell> &cells,
           const FingerprintSet &prints, Checks &checks,
           std::vector<campaign::ScenarioOutcome> &outcomes,
           campaign::ResultCache &cache)
{
    std::vector<double> fr, pp, all;
    uarch::CpuStats sum;
    attacks::resetPhaseProfile();
    const attacks::WarmSnapshotStats warm0 = attacks::warmSnapshotStats();
    ScopedSpan passSpan(p.tracer, "probe.serial_pass");
    for (const Cell &c : cells) {
        uarch::CpuStats stats;
        const double t0 = nowSeconds();
        attacks::AttackResult result;
        {
            ScopedSpan span(p.tracer, "attacks.runVariant",
                            passSpan.id());
            result = attacks::runVariant(c.variant, c.config, c.options,
                                         stats);
        }
        const double us = (nowSeconds() - t0) * 1e6;
        all.push_back(us);
        (c.options.channel == core::CovertChannelKind::PrimeProbe ? pp
                                                                  : fr)
            .push_back(us);
        sum.cycles += stats.cycles;
        sum.committed += stats.committed;
        sum.squashed += stats.squashed;
        const std::string bad = prints.check(c.key, result, stats);
        if (bad.empty())
            checks.pass();
        else
            checks.fail(bad);

        campaign::ScenarioOutcome o;
        o.variant = c.variant;
        o.config = c.config;
        o.options = c.options;
        o.rowLabel = core::variantInfo(c.variant).name;
        o.colLabel = "probe";
        o.result = result;
        o.stats = stats;
        o.wallMillis = us / 1e3;
        outcomes.push_back(o);
        cache.store(c.key, {result, stats});
    }
    const attacks::PhaseProfile phase = attacks::phaseProfile();
    const attacks::WarmSnapshotStats warm1 = attacks::warmSnapshotStats();

    p.add("attacks.cell_us.fr.p50", percentile(fr, 0.5), "us");
    p.add("attacks.cell_us.pp.p50", percentile(pp, 0.5), "us");
    p.add("attacks.cell_us.p99", percentile(all, 0.99), "us");
    const double total = static_cast<double>(phase.totalNanos);
    p.add("attacks.build_pct", 100.0 * ratio(phase.buildNanos, total),
          "%");
    p.add("attacks.prologue_pct",
          100.0 * ratio(phase.prologueNanos, total), "%");
    p.add("attacks.body_pct", 100.0 * ratio(phase.bodyNanos(), total),
          "%");
    p.add("attacks.teardown_pct",
          100.0 * ratio(phase.teardownNanos, total), "%");
    const double hits = static_cast<double>(warm1.hits - warm0.hits);
    const double misses =
        static_cast<double>(warm1.misses - warm0.misses);
    p.add("attacks.warm_hit_frac", ratio(hits, hits + misses), "frac");

    p.add("uarch.guest_cycles", static_cast<double>(sum.cycles),
          "cycles");
    p.add("uarch.ipc",
          ratio(static_cast<double>(sum.committed),
                static_cast<double>(sum.cycles)),
          "1/cycle");
    p.add("uarch.squash_frac",
          ratio(static_cast<double>(sum.squashed),
                static_cast<double>(sum.committed + sum.squashed)),
          "frac");
    p.add("uarch.host_ns_per_guest_cycle",
          ratio(static_cast<double>(phase.bodyNanos()),
                static_cast<double>(sum.cycles)),
          "ns");
    p.add("bench.probe_cells", static_cast<double>(cells.size()),
          "count");
}

/** Covert-channel receive, probe accesses and translate. */
void
probeChannels(Probe &p, const std::vector<Cell> &cells, int reps)
{
    // The workload's distinct CPU configurations, first 8 in cell
    // order: the channel harness runs on exactly these cores.
    std::vector<const Cell *> configs;
    std::unordered_set<std::string> seen;
    for (const Cell &c : cells) {
        if (configs.size() == 8)
            break;
        if (seen.insert(campaign::scenarioKey(core::AttackVariant{},
                                              c.config, {}))
                .second)
            configs.push_back(&c);
    }
    std::vector<double> frRecover, ppPrime, ppRecover, translate;
    std::uint64_t accesses = 0, probes = 0;
    std::uint64_t sink = 0;
    for (const Cell *c : configs) {
        attacks::Scenario scenario(c->config);
        uarch::Cpu &cpu = scenario.cpu();
        uarch::FlushReloadChannel fr(cpu, attacks::Layout::kProbeArray,
                                     256, uarch::kPageSize);
        uarch::PrimeProbeChannel pp(cpu, attacks::Layout::kEvictArray,
                                    256);
        for (int i = 0; i < reps; ++i) {
            fr.setup();
            {
                ScopedSpan span(p.tracer, "uarch.fr_recover");
                const double t0 = nowSeconds();
                sink += static_cast<std::uint64_t>(fr.recover().value);
                frRecover.push_back((nowSeconds() - t0) * 1e6);
            }
            const uarch::CacheStats before = cpu.cache().stats();
            {
                ScopedSpan span(p.tracer, "uarch.pp_prime");
                const double t0 = nowSeconds();
                pp.prime();
                ppPrime.push_back((nowSeconds() - t0) * 1e6);
            }
            {
                ScopedSpan span(p.tracer, "uarch.pp_recover");
                const double t0 = nowSeconds();
                sink += static_cast<std::uint64_t>(pp.recover().value);
                ppRecover.push_back((nowSeconds() - t0) * 1e6);
            }
            const uarch::CacheStats after = cpu.cache().stats();
            accesses += (after.hits + after.misses) -
                        (before.hits + before.misses);
            ++probes;
        }
        const uarch::PageTable &pt = scenario.pageTable();
        constexpr int kCalls = 256 * 64;
        ScopedSpan span(p.tracer, "uarch.translate");
        const double t0 = nowSeconds();
        for (int i = 0; i < kCalls; ++i) {
            const uarch::Addr va = attacks::Layout::kProbeArray +
                                   static_cast<uarch::Addr>(i % 256) *
                                       uarch::kPageSize +
                                   static_cast<uarch::Addr>(i / 256);
            sink += pt.translate(va, uarch::AccessType::Read,
                                 uarch::Privilege::User)
                        .paddr;
        }
        translate.push_back((nowSeconds() - t0) * 1e9 / kCalls);
    }
    p.add("uarch.fr_recover_us", percentile(frRecover, 0.5), "us");
    p.add("uarch.pp_prime_us", percentile(ppPrime, 0.5), "us");
    p.add("uarch.pp_recover_us", percentile(ppRecover, 0.5), "us");
    p.add("uarch.probe_accesses",
          ratio(static_cast<double>(accesses),
                static_cast<double>(probes)),
          "count");
    p.add("uarch.translate_ns", percentile(translate, 0.5), "ns");
    gSink = sink;
}

/** ResultCache lookup on the filled cache, then save/load of it. */
void
probeCache(Probe &p, const campaign::ResultCache &cache,
           const std::vector<Cell> &cells, const Options &options,
           int reps, Checks &checks)
{
    std::size_t found = 0;
    double lookupSeconds = 0.0;
    {
        ScopedSpan span(p.tracer, "campaign.cache_lookup");
        const double t0 = nowSeconds();
        for (int r = 0; r < reps; ++r)
            for (const Cell &c : cells)
                found += cache.lookup(c.key).has_value();
        lookupSeconds = nowSeconds() - t0;
    }
    p.add("campaign.cache_lookup_ns",
          ratio(lookupSeconds * 1e9,
                static_cast<double>(cells.size()) * reps),
          "ns");

    const std::string path = options.workDir + "/probe-cache.json";
    const std::string fingerprint = campaign::modelFingerprint();
    const double save = medianSeconds(3, [&] {
        std::remove(path.c_str());
        ScopedSpan span(p.tracer, "campaign.persist_save");
            if (!cache.saveToFile(path, fingerprint))
            checks.fail("cannot save " + path);
    });
    std::size_t loadedSize = 0;
    const double load = medianSeconds(3, [&] {
        campaign::ResultCache loaded;
        ScopedSpan span(p.tracer, "campaign.persist_load");
        loaded.loadFromFile(path, fingerprint);
        loadedSize = loaded.size();
    });
    if (loadedSize == cache.size())
        checks.pass();
    else
        checks.fail("persisted cache reloaded " +
                    std::to_string(loadedSize) + " of " +
                    std::to_string(cache.size()) + " entries");
    p.add("campaign.persist_save_ms", save * 1e3, "ms");
    p.add("campaign.persist_load_ms", load * 1e3, "ms");
    if (found == cells.size() * static_cast<std::size_t>(reps))
        checks.pass();
    else
        checks.fail("cache probe missed keys it had stored");
}

/** The analytic judges over the same unique cells. */
void
probeVerdicts(Probe &p, const std::vector<Cell> &cells)
{
    std::size_t staticDecided = 0, modelDecided = 0;
    double staticSeconds = 0.0, modelSeconds = 0.0;
    for (const Cell &c : cells) {
        {
            ScopedSpan span(p.tracer, "verdict.judge_static");
            const double t0 = nowSeconds();
            const verdict::StaticJudgement j =
                verdict::judgeScenarioStatic(c.variant, c.config,
                                             c.options);
            staticSeconds += nowSeconds() - t0;
            staticDecided += j.judgement.decided();
        }
        {
            ScopedSpan span(p.tracer, "verdict.judge_model");
            const double t0 = nowSeconds();
            const core::ModelJudgement j =
                verdict::judgeScenario(c.variant, c.config, c.options);
            modelSeconds += nowSeconds() - t0;
            modelDecided += j.decided();
        }
    }
    const double n = static_cast<double>(cells.size());
    p.add("verdict.static_cell_us", ratio(staticSeconds * 1e6, n), "us");
    p.add("verdict.model_cell_us", ratio(modelSeconds * 1e6, n), "us");
    p.add("verdict.static_decided_frac",
          ratio(static_cast<double>(staticDecided), n), "frac");
    p.add("verdict.model_decided_frac",
          ratio(static_cast<double>(modelDecided), n), "frac");
    // Decided cells only: an abstention is not a verdict.
    p.add("verdict.static_decided_cells_per_s",
          ratio(static_cast<double>(staticDecided), staticSeconds),
          "1/s");
    p.add("verdict.model_decided_cells_per_s",
          ratio(static_cast<double>(modelDecided), modelSeconds),
          "1/s");
}

/** JSONL records, golden parse/compare, and the wire protocol. */
void
probeFormats(Probe &p,
             const std::vector<campaign::ScenarioOutcome> &outcomes,
             const std::vector<std::vector<std::string>> &submits,
             const Options &options, int reps, Checks &checks)
{
    double recordSeconds = 0.0, bytes = 0.0;
    {
        ScopedSpan span(p.tracer, "tool.jsonl_record");
        const double t0 = nowSeconds();
        for (const campaign::ScenarioOutcome &o : outcomes)
            bytes += static_cast<double>(
                tool::jsonlOutcomeRecord(o).size());
        recordSeconds = nowSeconds() - t0;
    }
    p.add("tool.jsonl_record_us",
          ratio(recordSeconds * 1e6, static_cast<double>(outcomes.size())),
          "us");
    p.add("tool.export_bytes", bytes, "count");

    std::vector<double> parse, compare;
    for (const regress::NamedSpec &named : regress::registeredSpecs()) {
        std::string text;
        tool::readTextFile(options.goldenDir + "/" + named.name + ".json",
                           text);
        std::optional<regress::GoldenMatrix> a, b;
        parse.push_back(medianSeconds(reps, [&] {
            ScopedSpan span(p.tracer, "regress.golden_parse");
            a = regress::parseGoldenJson(text);
        }));
        b = regress::parseGoldenJson(text);
        if (!a || !b) {
            checks.fail("cannot parse golden " + named.name);
            continue;
        }
        bool same = true;
        compare.push_back(medianSeconds(reps, [&] {
            ScopedSpan span(p.tracer, "regress.compare_golden");
            same = regress::compareGolden(*a, *b).empty();
        }));
        if (same)
            checks.pass();
        else
            checks.fail("golden " + named.name + " differs from itself");
    }
    p.add("regress.golden_parse_us", percentile(parse, 0.5) * 1e6, "us");
    p.add("regress.compare_us", percentile(compare, 0.5) * 1e6, "us");

    // The wire: every submit the workload sends and one result line
    // per cell, parsed the way the daemon and clients parse them.
    std::vector<std::string> lines;
    double submitBytes = 0.0;
    for (const std::vector<std::string> &keys : submits) {
        serve::SubmitMsg submit;
        submit.name = options.workload;
        submit.keys = keys;
        lines.push_back(serve::submitLine(submit));
        submitBytes += static_cast<double>(lines.back().size());
    }
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        serve::ResultMsg result;
        result.index = i;
        result.cached = true;
        result.result = outcomes[i].result;
        result.stats = outcomes[i].stats;
        lines.push_back(serve::resultLine(result));
    }
    std::size_t invalid = 0;
    double parseSeconds = 0.0;
    {
        ScopedSpan span(p.tracer, "serve.parse_line");
        const double t0 = nowSeconds();
        for (const std::string &line : lines)
            invalid += serve::parseLine(line).type ==
                       serve::MsgType::Invalid;
        parseSeconds = nowSeconds() - t0;
    }
    p.add("serve.parse_line_us",
          ratio(parseSeconds * 1e6, static_cast<double>(lines.size())),
          "us");
    p.add("serve.submit_bytes",
          ratio(submitBytes, static_cast<double>(submits.size())),
          "count");
    if (invalid == 0)
        checks.pass();
    else
        checks.fail(std::to_string(invalid) +
                    " protocol lines failed to parse");
}

} // namespace

std::vector<Metric>
runProbes(const Options &options, const Workload &workload,
          const FingerprintSet &prints, Checks &checks, Tracer &tracer)
{
    std::vector<Metric> out;
    Probe p{out, tracer};
    std::vector<Cell> cells = workload.cells();
    if (options.smoke && cells.size() > 48)
        cells.resize(48);
    const int reps = options.smoke ? 1 : 5;

    {
        ScopedSpan span(tracer, "probe.expand");
        const std::vector<campaign::ScenarioSpec> specs =
            workload.specs();
        double seconds = 0.0;
        for (const campaign::ScenarioSpec &spec : specs)
            seconds += medianSeconds(reps, [&] {
                ScopedSpan inner(tracer, "campaign.dedupGrid", span.id());
                campaign::dedupGrid(spec);
            });
        p.add("campaign.expand_us",
              ratio(seconds * 1e6, static_cast<double>(specs.size())),
              "us");
    }

    std::vector<campaign::ScenarioOutcome> outcomes;
    campaign::ResultCache cache;
    probeCells(p, cells, prints, checks, outcomes, cache);
    probeCache(p, cache, cells, options, reps, checks);
    probeVerdicts(p, cells);
    probeFormats(p, outcomes, workload.submits(), options, reps, checks);
    probeChannels(p, cells, options.smoke ? 2 : 20);
    return out;
}

} // namespace specbench
