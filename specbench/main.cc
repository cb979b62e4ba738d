/**
 * @file
 * specbench: one workload, one seed, one JSON line of metrics.
 *
 *   specbench --workload gate|sweep|serve-warm --seed N --seconds S
 *             --trace 0|1 --fingerprints F [--golden-dir D]
 *             [--work-dir D] [--smoke]
 *   specbench --record --fingerprints F
 *
 * The last line of standard output is
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 * with the end-to-end metrics under --trace 0 and the per-layer
 * metrics under --trace 1.  Everything else goes to standard error.
 * Exit code 2 means the run could not be set up (bad arguments,
 * missing goldens or fingerprints) and no result was printed.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.hh"
#include "regress/specs.hh"
#include "tool/report.hh"

namespace
{

using namespace specbench;

/**
 * Tail quantile of round latency.  p90 on every workload: with 200
 * gate passes or ~15000 serve batches it rests on 20+ samples beyond
 * it, and on a shared host the p99 of 2 ms serve batches moved 2x
 * between otherwise identical runs.
 */
constexpr double kTailQ = 0.90;

/**
 * Quantile of the per-pass (or per-stretch) rates reported as
 * cells_per_s: the rate of the slowest tenth.  Other tenants of a
 * shared host slow a thread by up to 2x, in stretches of seconds to
 * minutes.  The slow stretch shows in nearly every run while the fast
 * one shows in some, so the median of ~15 sweep passes lands on
 * either side from run to run; this quantile's spread over runs is
 * smaller (see README.md, End-to-end metrics).
 */
constexpr double kRateQ = 0.10;

/**
 * Blocks the tail is taken over (see summarize()).  A sweep run has
 * too few passes to split, so its tail is the plain p90.
 */
std::size_t
tailBlocks(const std::string &workload)
{
    return workload == "sweep" ? 1 : 5;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
metricsJson(const Checks &checks, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += checks.failed() == 0 && checks.attempted() > 0 ? "true"
                                                          : "false";
    out += ", \"attempted\": " + std::to_string(checks.attempted());
    out += ", \"failed\": " + std::to_string(checks.failed());
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

void
append(Rounds &into, const Rounds &from)
{
    into.roundMsN.insert(into.roundMsN.end(), from.roundMsN.begin(),
                         from.roundMsN.end());
    into.rateN.insert(into.rateN.end(), from.rateN.begin(),
                      from.rateN.end());
    into.rate1.insert(into.rate1.end(), from.rate1.begin(),
                      from.rate1.end());
    into.busySeconds += from.busySeconds;
    into.workerSeconds += from.workerSeconds;
    into.cacheLookups += from.cacheLookups;
    into.cacheHits += from.cacheHits;
    into.firstResultMs.insert(into.firstResultMs.end(),
                              from.firstResultMs.begin(),
                              from.firstResultMs.end());
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload gate|sweep|serve-warm --seed N "
                 "--seconds S --trace 0|1 --fingerprints F\n"
                 "          [--golden-dir D] [--work-dir D] [--smoke]\n"
                 "       %s --record --fingerprints F\n",
                 argv0, argv0);
    return 2;
}

/** Re-record the committed fingerprints of every gate and sweep cell. */
int
record(const Options &options)
{
    std::vector<campaign::ScenarioSpec> specs;
    for (const auto &named : specsec::regress::registeredSpecs())
        specs.push_back(named.spec);
    specs.push_back(sweepSpec(0));
    FingerprintSet prints;
    std::string error;
    if (!fingerprintCells(uniqueCells(specs), options.nproc, prints,
                          &error) ||
        !prints.save(options.fingerprintPath)) {
        std::fprintf(stderr, "specbench: record failed: %s\n",
                     error.c_str());
        return 1;
    }
    std::fprintf(stderr, "specbench: recorded %zu fingerprints to %s\n",
                 prints.size(), options.fingerprintPath.c_str());
    return 0;
}

int
run(const Options &options)
{
    Checks checks;
    std::unique_ptr<Workload> workload = makeWorkload(options, checks);

    // Set-up runs kSetups times, spread through the run: each one
    // is followed by a 1/kSetups share of the measured time.  A
    // set-up lasts milliseconds, so five back-to-back ones would all
    // see the same moment of a shared host; spread out, their median
    // does not.  Tearing the previous set-up down is not timed.
    constexpr int kSetups = 5;
    std::vector<double> setups;
    const auto setUp = [&] {
        workload->teardown();
        const double t0 = nowSeconds();
        workload->setup();
        setups.push_back(nowSeconds() - t0);
    };

    std::vector<Metric> metrics;
    Tracer tracer;
    if (!options.trace) {
        Rounds r;
        for (int k = 0; k < kSetups; ++k) {
            setUp();
            append(r, workload->measure(options.seconds / kSetups, tracer));
        }
        const Summary round =
            summarize(r.roundMsN, kTailQ,
                      tailBlocks(options.workload));
        std::fprintf(stderr,
                     "specbench: %s seed %llu: %zu rounds, p50 %.3f ms, "
                     "p%g %.3f ms (median of %zu blocks; %zu samples "
                     "beyond)\n",
                     options.workload.c_str(),
                     static_cast<unsigned long long>(options.seed),
                     round.count, round.p50, round.tailQ * 100,
                     round.tail, round.blocks, round.beyondTail());
        for (const auto &[name, rates] :
             {std::pair{"wN", &r.rateN}, std::pair{"w1", &r.rate1}}) {
            std::fprintf(stderr, "specbench: %s rates:", name);
            for (const double v : *rates)
                std::fprintf(stderr, " %.1f", v);
            std::fprintf(stderr, "\n");
        }
        const double passFrac =
            checks.attempted() == 0
                ? 0.0
                : 1.0 - static_cast<double>(checks.failed()) /
                            static_cast<double>(checks.attempted());
        metrics = {
            {"setup_s", median(setups), "s"},
            {"rss_mb", peakRssMb(), "MB"},
            {"pass_frac", passFrac, "frac"},
            {"round_ms.p50", round.p50, "ms"},
            {"round_ms.tail", round.tail, "ms"},
            {"cells_per_s.wN", percentile(r.rateN, kRateQ), "1/s"},
            {"cells_per_s.w1", percentile(r.rate1, kRateQ), "1/s"},
        };
    } else {
        // Traced and untraced stretches alternate, so drift in the
        // machine's speed does not masquerade as tracing overhead.
        setUp();
        Rounds base, traced;
        for (int k = 0; k < 4; ++k) {
            tracer.setEnabled(k % 2 == 1);
            append(k % 2 ? traced : base,
                   workload->measure(options.seconds / 4, tracer));
        }
        tracer.setEnabled(true);
        FingerprintSet prints;
        std::string error;
        if (!prints.load(options.fingerprintPath, &error))
            throw std::runtime_error(error);
        metrics = runProbes(options, *workload, prints, checks, tracer);

        const double baseP50 = median(base.roundMsN);
        metrics.push_back(
            {"campaign.worker_busy_frac",
             traced.workerSeconds > 0.0
                 ? traced.busySeconds / traced.workerSeconds
                 : 0.0,
             "frac"});
        metrics.push_back(
            {"campaign.cache_hit_frac",
             traced.cacheLookups
                 ? static_cast<double>(traced.cacheHits) /
                       static_cast<double>(traced.cacheLookups)
                 : 0.0,
             "frac"});
        metrics.push_back({"serve.first_result_ms",
                           median(traced.firstResultMs), "ms"});
        metrics.push_back(
            {"bench.trace_overhead_pct",
             baseP50 > 0.0
                 ? 100.0 * (median(traced.roundMsN) - baseP50) / baseP50
                 : 0.0,
             "%"});

        const std::string path = options.workDir + "/trace-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".json";
        const std::vector<Span> spans = tracer.spans();
        if (!specsec::tool::writeTextFile(path, traceJson(spans)))
            throw std::runtime_error("cannot write " + path);
        std::fprintf(stderr, "specbench: %zu spans -> %s\n", spans.size(),
                     path.c_str());
    }
    workload.reset();
    std::printf("%s\n", metricsJson(checks, metrics).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    options.nproc = std::max(1u, std::thread::hardware_concurrency());
    bool recordMode = false;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--smoke") {
            options.smoke = true;
        } else if (arg == "--record") {
            recordMode = true;
        } else if (!hasValue) {
            return usage(argv[0]);
        } else if (arg == "--workload") {
            options.workload = argv[++i];
            haveWorkload = true;
        } else if (arg == "--seed") {
            char *end = nullptr;
            options.seed = std::strtoull(argv[++i], &end, 10);
            haveSeed = *end == '\0';
        } else if (arg == "--seconds") {
            char *end = nullptr;
            options.seconds = std::strtod(argv[++i], &end);
            haveSeconds = *end == '\0' && options.seconds > 0.0 &&
                          options.seconds <= 600.0;
        } else if (arg == "--trace") {
            const std::string v = argv[++i];
            haveTrace = v == "0" || v == "1";
            options.trace = v == "1";
        } else if (arg == "--fingerprints") {
            options.fingerprintPath = argv[++i];
        } else if (arg == "--golden-dir") {
            options.goldenDir = argv[++i];
        } else if (arg == "--work-dir") {
            options.workDir = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }
    if (options.fingerprintPath.empty())
        return usage(argv[0]);
    if (recordMode)
        return record(options);

    bool known = false;
    for (const std::string &name : workloadNames())
        known = known || name == options.workload;
    if (!haveWorkload || !known || !haveSeed || !haveSeconds ||
        !haveTrace)
        return usage(argv[0]);
    if (options.workDir.empty())
        options.workDir = ".";
    std::error_code ec;
    std::filesystem::create_directories(options.workDir, ec);

    try {
        return run(options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "specbench: %s\n", e.what());
        return 2;
    }
}
