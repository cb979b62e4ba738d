/**
 * @file
 * specsec_regress: the golden success-matrix regression gate.
 *
 * Records one golden matrix per named campaign spec (JSON under
 * golden/) and checks fresh runs against them cell-by-cell:
 *
 *   specsec_regress --list
 *   specsec_regress --record [--spec NAME] [--golden-dir DIR]
 *   specsec_regress --check  [--spec NAME] [--golden-dir DIR]
 *                            [--artifact-dir DIR] [--workers N]
 *                            [--cache-file PATH]
 *   specsec_regress --check --shard I/N [--shard-dir DIR]
 *   specsec_regress --merge [--shard-dir DIR] ...
 *
 * --check exits 0 when every matrix matches its golden, 1 on drift
 * (printing a diff naming each changed (variant, defense) cell and
 * writing actual/diff/campaign artifacts for CI upload), 2 on usage
 * or I/O errors.  --flip-vuln PATH deliberately removes a forwarding
 * path from the checked specs' baseline core -- a self-test that the
 * gate catches model changes.
 *
 * Sharded operation fans one gate across processes: `--check
 * --shard I/N` executes shard I of every selected spec and writes a
 * mergeable shard report per spec into --shard-dir instead of
 * comparing; a final `--merge` invocation loads every shard file,
 * re-joins them with CampaignReport::merge, and compares the merged
 * matrices against the goldens -- byte-identically to a
 * single-process --check (tests/shard_test.cc pins this).
 *
 * --cache-file makes the cross-spec ResultCache persistent: entries
 * are loaded before the first spec (ignored wholesale when the
 * model fingerprint is stale or the file is corrupt) and saved back
 * atomically at exit, so an unchanged matrix re-run executes zero
 * cells even across processes and CI jobs.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "campaign/sink.hh"
#include "core/catalog.hh"
#include "regress/golden.hh"
#include "regress/specs.hh"
#include "serve/client.hh"
#include "tool/cli.hh"
#include "tool/report.hh"
#include "tool/report_io.hh"
#include "verdict/differential.hh"
#include "verdict/model.hh"
#include "verdict/static_verdict.hh"
#include "verdict/verdict.hh"

using namespace specsec;
using namespace specsec::regress;
namespace cli = specsec::tool::cli;

namespace
{

int
usage(const char *prog)
{
    std::fprintf(
        stderr,
        "usage: %s [--list | --record | --check | --merge] "
        "[options]\n"
        "  --list             print the registered specs\n"
        "  --json             with --list: one JSON object per spec "
        "(the same\n"
        "                     shape campaign_cli list-attacks --json "
        "uses)\n"
        "  --record           (re)write goldens from a fresh run; "
        "always runs the\n"
        "                     differential backend and also "
        "(re)writes the\n"
        "                     disagreement pins "
        "golden/differential-<spec>.json and\n"
        "                     golden/differential-static-<spec>.json "
        "of every spec\n"
        "                     that diverges (a missing pin file "
        "pins none)\n"
        "  --check            compare a fresh run against goldens "
        "(default)\n"
        "  --backend B        with --check: simulator (default), "
        "differential\n"
        "                     (also gate model-vs-simulator "
        "disagreements against\n"
        "                     the committed pins) or static (gate\n"
        "                     analyzer-vs-simulator disagreements "
        "against the\n"
        "                     differential-static-<spec>.json pins)\n"
        "  --merge            merge shard reports from --shard-dir "
        "and compare\n"
        "                     the merged matrices against goldens\n"
        "  --spec NAME        limit to one registered spec\n"
        "  --golden-dir DIR   golden file directory (default: "
        "golden)\n"
        "  --artifact-dir DIR where --check drops actual/diff/"
        "campaign files on drift\n"
        "                     (default: regress-artifacts)\n"
        "  --workers N        engine worker threads (default: all "
        "cores)\n"
        "  --shard I/N        with --check: execute only shard I of "
        "N of each spec\n"
        "                     and write mergeable shard reports to "
        "--shard-dir\n"
        "                     instead of comparing\n"
        "  --shard-dir DIR    shard report directory (default: "
        "regress-shards)\n"
        "  --cache-file PATH  persistent result cache: load before "
        "running, save\n"
        "                     (atomically) after; stale/corrupt "
        "files are ignored\n"
        "  --connect HOST:P   with --check: execute every spec on "
        "a running\n"
        "                     `campaign_cli serve` daemon (shared "
        "cache fleet)\n"
        "                     instead of in-process; results are "
        "byte-identical\n"
        "  --with-accuracy    with --record: also pin every "
        "schema-declared\n"
        "                     accuracy field per grid point "
        "(compared under\n"
        "                     the golden's absEps tolerance)\n"
        "  --accuracy-eps E   absolute tolerance recorded into "
        "accuracy goldens\n"
        "                     (implies --with-accuracy)\n"
        "  --format-from DIR  with --record: inherit each spec's "
        "golden format\n"
        "                     (accuracy fields + absEps) from the "
        "goldens in DIR\n"
        "                     (default: --golden-dir), so "
        "re-recording into a\n"
        "                     scratch dir reproduces committed "
        "files byte-for-byte\n"
        "  --flip-vuln PATH   drift self-test: disable a forwarding "
        "path (meltdown,\n"
        "                     l1tf, mds, lazyfp, store-bypass, msr, "
        "taa) before running\n",
        prog);
    return 2;
}

bool
ensureDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return !ec;
}

std::string
shardFileName(const std::string &spec, std::size_t index,
              std::size_t count)
{
    return spec + ".shard-" + std::to_string(index) + "-of-" +
           std::to_string(count) + ".json";
}

/** Exit-code bookkeeping shared by --check and --merge. */
struct GateStatus
{
    bool drift = false;
    bool io_error = false;
};

/**
 * The golden comparison step: compare @p report against the
 * committed golden of @p named, printing ok/DRIFT and dropping
 * artifacts on drift.
 */
void
checkAgainstGolden(const NamedSpec &named,
                   const campaign::CampaignReport &report,
                   const std::string &golden_dir,
                   const std::string &artifact_dir,
                   GateStatus &status)
{
    const std::string golden_path =
        golden_dir + "/" + named.name + ".json";

    std::string text;
    if (!tool::readTextFile(golden_path, text)) {
        std::fprintf(stderr,
                     "%s: missing golden %s (run "
                     "specsec_regress --record)\n",
                     named.name.c_str(), golden_path.c_str());
        status.io_error = true;
        return;
    }
    std::string parse_error;
    const auto golden = parseGoldenJson(text, &parse_error);
    if (!golden) {
        std::fprintf(stderr, "%s: malformed golden %s: %s\n",
                     named.name.c_str(), golden_path.c_str(),
                     parse_error.c_str());
        status.io_error = true;
        return;
    }

    // The golden dictates the comparison contract: accuracy values
    // are captured and checked (under its absEps) only when the
    // golden pins them.
    GoldenMatrix actual =
        GoldenMatrix::fromReport(report, golden->hasAccuracy);
    actual.absEps = golden->absEps;

    const MatrixDiff diff = compareGolden(*golden, actual);
    if (diff.empty()) {
        std::printf("ok       %-28s %4zu cells (%zu executed, "
                    "%zu cached)\n",
                    named.name.c_str(), report.expandedCount,
                    report.executedCount, report.cacheHits);
        return;
    }

    status.drift = true;
    std::printf("DRIFT    %-28s %zu structural, %zu cell "
                "change(s):\n%s",
                named.name.c_str(), diff.structural.size(),
                diff.cells.size(), renderDiff(diff).c_str());
    if (ensureDir(artifact_dir)) {
        const std::string stem = artifact_dir + "/" + named.name;
        tool::writeTextFile(stem + ".actual.json",
                            goldenJson(actual));
        tool::writeTextFile(stem + ".diff.txt", renderDiff(diff));
        tool::writeTextFile(stem + ".campaign.json",
                            tool::campaignJson(report, false));
        tool::writeTextFile(stem + ".campaign.csv",
                            tool::campaignCsv(report, false));
        std::printf("         artifacts under %s/\n",
                    artifact_dir.c_str());
    }
}

/**
 * --merge: load and fold every shard report of @p named from
 * @p shard_dir; nullopt (with a printed message) when files are
 * missing, malformed, conflicting, or the union is incomplete.
 */
std::optional<campaign::CampaignReport>
mergeShards(const NamedSpec &named, const std::string &shard_dir)
{
    std::vector<std::string> files;
    std::error_code ec;
    const std::string prefix = named.name + ".shard-";
    for (const auto &entry :
         std::filesystem::directory_iterator(shard_dir, ec)) {
        const std::string file = entry.path().filename().string();
        if (file.rfind(prefix, 0) == 0 &&
            file.size() > 5 &&
            file.compare(file.size() - 5, 5, ".json") == 0)
            files.push_back(entry.path().string());
    }
    if (ec) {
        std::fprintf(stderr, "%s: cannot read shard dir %s\n",
                     named.name.c_str(), shard_dir.c_str());
        return std::nullopt;
    }
    if (files.empty()) {
        std::fprintf(stderr,
                     "%s: no shard reports under %s (run --check "
                     "--shard I/N first)\n",
                     named.name.c_str(), shard_dir.c_str());
        return std::nullopt;
    }
    // Deterministic fold order regardless of directory order.
    std::sort(files.begin(), files.end());

    std::string error;
    auto merged = tool::mergeShardFiles(files, &error);
    if (!merged) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return std::nullopt;
    }
    if (merged->partial()) {
        std::fprintf(stderr,
                     "%s: merged shards cover %zu of %zu grid "
                     "points -- missing shard file(s)?\n",
                     named.name.c_str(), merged->outcomes.size(),
                     merged->expandedCount);
        return std::nullopt;
    }
    return merged;
}

/** Pin file of a judging backend's divergences for @p spec. */
std::string
pinPath(const std::string &golden_dir,
        verdict::VerdictBackend backend, const std::string &spec)
{
    return golden_dir +
           (backend == verdict::VerdictBackend::Static
                ? "/differential-static-"
                : "/differential-") +
           spec + ".json";
}

/**
 * The disagreements of a differential- or static-backend run, one
 * entry per distinct scenario key (grid dedup can back several cells
 * with one execution), with the judging backend's rationale
 * re-derived so recorded pins are self-documenting.
 */
verdict::DisagreementSet
freshDisagreements(const NamedSpec &named,
                   const campaign::CampaignReport &report,
                   verdict::VerdictBackend backend)
{
    verdict::DisagreementSet set;
    set.spec = named.name;
    std::vector<std::string> seen;
    for (const campaign::ScenarioOutcome &o : report.outcomes) {
        if (o.agreement != "disagree")
            continue;
        const std::string key = campaign::scenarioKey(
            o.variant, o.config, o.options);
        if (std::find(seen.begin(), seen.end(), key) != seen.end())
            continue;
        seen.push_back(key);
        verdict::Disagreement d;
        d.key = key;
        d.row = o.rowLabel;
        d.col = o.colLabel;
        d.model = o.modelVerdict;
        d.simulator = o.result.leaked ? "leak" : "blocked";
        d.evidence = o.evidence;
        d.rationale =
            backend == verdict::VerdictBackend::Static
                ? verdict::judgeScenarioStatic(o.variant, o.config,
                                               o.options)
                      .judgement.rationale
                : verdict::judgeScenario(o.variant, o.config,
                                         o.options)
                      .rationale;
        set.disagreements.push_back(std::move(d));
    }
    return set;
}

/**
 * The differential gate: compare the run's disagreements against
 * the committed pins in golden/differential-<spec>.json.  A missing
 * pin file is an empty pin set (--record writes one only for a spec
 * that diverges), so a new divergence reports as drift.
 */
void
checkDisagreements(const NamedSpec &named,
                   const campaign::CampaignReport &report,
                   verdict::VerdictBackend backend,
                   const std::string &golden_dir,
                   const std::string &artifact_dir,
                   GateStatus &status)
{
    const verdict::DisagreementSet fresh =
        freshDisagreements(named, report, backend);
    const std::string pin_path =
        pinPath(golden_dir, backend, named.name);

    verdict::DisagreementSet pinned;
    pinned.spec = named.name;
    std::string text;
    if (tool::readTextFile(pin_path, text)) {
        std::string parse_error;
        const auto parsed =
            verdict::parseDisagreementJson(text, &parse_error);
        if (!parsed) {
            std::fprintf(stderr,
                         "%s: malformed disagreement pins %s: %s\n",
                         named.name.c_str(), pin_path.c_str(),
                         parse_error.c_str());
            status.io_error = true;
            return;
        }
        pinned = *parsed;
    }

    const std::vector<std::string> drift =
        verdict::compareDisagreements(pinned, fresh);
    if (drift.empty()) {
        std::printf("agree    %-28s %zu decided, %zu undecided, "
                    "%zu pinned divergence(s)\n",
                    named.name.c_str(), report.modelDecided,
                    report.modelUndecided,
                    fresh.disagreements.size());
        return;
    }

    status.drift = true;
    std::printf("DISAGREE %-28s %zu drift line(s):\n",
                named.name.c_str(), drift.size());
    for (const std::string &line : drift)
        std::printf("  %s\n", line.c_str());
    if (ensureDir(artifact_dir)) {
        const std::string stem = artifact_dir + "/" + named.name;
        tool::writeTextFile(stem + ".disagreements.json",
                            verdict::disagreementJson(fresh));
        std::string lines;
        for (const std::string &line : drift)
            lines += line + "\n";
        tool::writeTextFile(stem + ".disagreement-drift.txt",
                            lines);
        std::printf("         artifacts under %s/\n",
                    artifact_dir.c_str());
    }
}

/**
 * Record a judging backend's divergences for one spec.  Only a spec
 * that diverges gets a pin file and a stale one is removed
 * otherwise, so a re-record into a scratch directory reproduces the
 * committed set file-for-file (the CI schema-drift job compares
 * both directions).  @return false on an I/O error.
 */
bool
recordPins(const NamedSpec &named,
           const campaign::CampaignReport &report,
           verdict::VerdictBackend backend,
           const std::string &golden_dir)
{
    const verdict::DisagreementSet fresh =
        freshDisagreements(named, report, backend);
    const std::string pin_path =
        pinPath(golden_dir, backend, named.name);
    const char *what = backend == verdict::VerdictBackend::Static
                           ? "static divergence(s)"
                           : "divergence(s)";
    if (fresh.disagreements.empty()) {
        std::error_code ec;
        std::filesystem::remove(pin_path, ec);
        if (ec) {
            std::fprintf(stderr, "cannot remove %s: %s\n",
                         pin_path.c_str(), ec.message().c_str());
            return false;
        }
        std::printf("pinned   %-28s    0 %s\n", named.name.c_str(),
                    what);
        return true;
    }
    if (!tool::writeTextFile(pin_path,
                             verdict::disagreementJson(fresh))) {
        std::fprintf(stderr, "cannot write %s\n", pin_path.c_str());
        return false;
    }
    std::printf("pinned   %-28s %4zu %s -> %s\n", named.name.c_str(),
                fresh.disagreements.size(), what, pin_path.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    enum class Mode { List, Record, Check, Merge };
    Mode mode = Mode::Check;
    std::string only_spec;
    std::string golden_dir = "golden";
    std::string artifact_dir = "regress-artifacts";
    std::string shard_dir = "regress-shards";
    std::string cache_file;
    std::string connect_endpoint;
    const uarch::VulnPath *flip = nullptr;
    std::string format_from;
    bool list_json = false;
    bool backend_given = false;
    verdict::VerdictBackend backend =
        verdict::VerdictBackend::Simulator;
    bool with_accuracy = false;
    std::optional<double> accuracy_eps;
    campaign::ShardRange shard;
    bool sharded = false;
    campaign::CampaignEngine::Options engine_opts;

    for (cli::Args args(argc, argv); args.next();) {
        const std::string &arg = args.arg();
        if (arg == "--list")
            mode = Mode::List;
        else if (arg == "--record")
            mode = Mode::Record;
        else if (arg == "--check")
            mode = Mode::Check;
        else if (arg == "--merge")
            mode = Mode::Merge;
        else if (arg == "--json")
            list_json = true;
        else if (arg == "--backend") {
            backend = args.backend();
            backend_given = true;
        } else if (arg == "--spec")
            only_spec = args.value();
        else if (arg == "--golden-dir")
            golden_dir = args.value();
        else if (arg == "--artifact-dir")
            artifact_dir = args.value();
        else if (arg == "--shard-dir")
            shard_dir = args.value();
        else if (arg == "--cache-file")
            cache_file = args.value();
        else if (arg == "--connect")
            connect_endpoint = args.value();
        else if (arg == "--with-accuracy")
            with_accuracy = true;
        else if (arg == "--accuracy-eps") {
            const std::string v = args.value();
            char *end = nullptr;
            const double eps = std::strtod(v.c_str(), &end);
            if (v.empty() || end == nullptr || *end != '\0' ||
                !std::isfinite(eps) || eps < 0.0)
                cli::fail("--accuracy-eps: '" + v +
                                "' is not a non-negative number");
            accuracy_eps = eps;
        } else if (arg == "--format-from")
            format_from = args.value();
        else if (arg == "--shard") {
            if (!campaign::parseShardRange(args.value(), shard))
                cli::fail("--shard: expected I/N with I < N");
            sharded = true;
        } else if (arg == "--workers")
            engine_opts.workers = args.workers();
        else if (arg == "--flip-vuln") {
            // Checked here, before any connect or cache load, so a
            // typo is reported as a typo.
            const std::string name = args.value();
            flip = uarch::findVulnPath(name);
            if (flip == nullptr) {
                std::vector<std::string> names;
                for (const uarch::VulnPath &path : uarch::kVulnPaths)
                    names.push_back(path.name);
                cli::fail(core::unknownNameMessage(
                    "forwarding path", name,
                    core::suggestNames(names, name)));
            }
        } else
            return usage(argv[0]);
    }

    if (list_json && mode != Mode::List)
        cli::fail("--json only applies to --list");
    if (backend_given) {
        if (mode != Mode::Check)
            cli::fail("--backend only applies to --check (--record "
                      "always runs the differential backend; --merge "
                      "re-joins shard runs)");
        if (backend == verdict::VerdictBackend::Model)
            cli::fail("--backend model cannot gate goldens: the model "
                      "synthesizes verdicts and the golden matrices "
                      "pin the simulator -- use differential");
        if (sharded || (!connect_endpoint.empty() &&
                        backend != verdict::VerdictBackend::Simulator))
            cli::fail("--backend cannot be combined with --shard or "
                      "--connect (shard reports and the serve daemon "
                      "always carry simulator results)");
    }
    // Recording from a deliberately broken core would poison the
    // goldens: every later --check would pass against the wrong
    // model.  The flip is a --check self-test only.
    if (mode == Mode::Record && flip != nullptr)
        cli::fail("--flip-vuln cannot be combined with --record");
    // Merge never executes scenarios, so the flip would be a silent
    // no-op and the self-test would "pass" vacuously.
    if (mode == Mode::Merge && flip != nullptr)
        cli::fail("--flip-vuln cannot be combined with --merge (merge "
                  "runs nothing; flip the shard runs instead)");
    if (sharded && mode != Mode::Check)
        cli::fail("--shard only applies to --check (goldens and "
                  "merges need the whole grid)");
    if (!connect_endpoint.empty()) {
        if (mode != Mode::Check)
            cli::fail("--connect only applies to --check (goldens are "
                      "recorded from the local model)");
        // Remote runs already share the daemon's cache and its
        // worker pool; client-side shards and caches would only
        // obscure whose results a check used.
        if (sharded || !cache_file.empty())
            cli::fail("--connect cannot be combined with --shard or "
                      "--cache-file (the daemon owns both concerns)");
    }
    if (mode != Mode::Record &&
        (with_accuracy || accuracy_eps || !format_from.empty()))
        cli::fail("--with-accuracy / --accuracy-eps / --format-from "
                  "only apply to --record (--check follows the "
                  "committed golden's format)");
    if (format_from.empty())
        format_from = golden_dir;

    if (mode == Mode::List) {
        if (list_json) {
            // The same shape `campaign_cli list-attacks --json`
            // uses: a JSON array, one object per line, so fleet
            // tooling can discover specs and attacks identically.
            const auto &specs = registeredSpecs();
            std::printf("[\n");
            for (std::size_t i = 0; i < specs.size(); ++i) {
                const NamedSpec &named = specs[i];
                std::printf(
                    "  {\"name\": \"%s\", \"cells\": %zu, "
                    "\"description\": \"%s\"}%s\n",
                    tool::jsonEscape(named.name).c_str(),
                    named.spec.gridSize(),
                    tool::jsonEscape(named.description).c_str(),
                    i + 1 < specs.size() ? "," : "");
            }
            std::printf("]\n");
            return 0;
        }
        for (const NamedSpec &named : registeredSpecs())
            std::printf("%-28s %4zu cells  %s\n",
                        named.name.c_str(), named.spec.gridSize(),
                        named.description.c_str());
        return 0;
    }

    std::vector<NamedSpec> selected;
    for (const NamedSpec &named : registeredSpecs())
        if (only_spec.empty() || named.name == only_spec)
            selected.push_back(named);
    if (selected.empty()) {
        // One near-miss helper for the whole tree: the same
        // suggestion list the catalog lookups print.
        std::vector<std::string> names;
        for (const NamedSpec &named : registeredSpecs())
            names.push_back(named.name);
        cli::fail(core::unknownNameMessage(
            "spec", only_spec, core::suggestNames(names, only_spec)));
    }

    campaign::ResultCache cache;
    engine_opts.cache = &cache;
    // Recording always runs the differential backend so the golden
    // matrices (simulator results, byte-identical to a plain run)
    // and the disagreement pins come from one sweep.
    if (mode == Mode::Record)
        engine_opts.backend = verdict::VerdictBackend::Differential;
    else if (mode == Mode::Check)
        engine_opts.backend = backend;
    const campaign::CampaignEngine engine(engine_opts);
    serve::Client client;
    if (!connect_endpoint.empty()) {
        if (!cli::connect(connect_endpoint, client))
            return 2;
        std::printf("connected to %s (%u server workers)\n",
                    connect_endpoint.c_str(),
                    client.serverWorkers());
    }
    // --merge runs nothing, so it neither reads nor writes the cache.
    if (mode != Mode::Merge)
        cli::loadCache(cache, cache_file);

    if (mode == Mode::Record && !ensureDir(golden_dir))
        cli::fail("cannot create " + golden_dir);
    if (sharded && !ensureDir(shard_dir))
        cli::fail("cannot create " + shard_dir);

    GateStatus status;
    for (NamedSpec &named : selected) {
        if (flip != nullptr) {
            bool &path = named.spec.baseConfig.vuln.*flip->flag;
            path = !path;
        }

        if (mode == Mode::Merge) {
            const auto merged = mergeShards(named, shard_dir);
            if (!merged) {
                status.io_error = true;
                continue;
            }
            checkAgainstGolden(named, *merged, golden_dir,
                               artifact_dir, status);
            continue;
        }

        campaign::CampaignReport report;
        if (connect_endpoint.empty()) {
            report = engine.run(named.spec, shard);
        } else {
            // The remote path drives the same ReportSink the
            // engine's collect API is built on, so the report —
            // and every golden comparison below — is
            // byte-identical to the offline run by construction.
            campaign::ReportSink sink;
            std::string error;
            if (!client.run(named.spec, {&sink}, shard, &error)) {
                std::fprintf(stderr, "%s: remote run failed: %s\n",
                             named.name.c_str(), error.c_str());
                status.io_error = true;
                continue;
            }
            report = sink.takeReport();
        }

        if (sharded) {
            const std::string path =
                shard_dir + "/" +
                shardFileName(named.name, shard.index,
                              shard.count);
            if (!tool::writeTextFile(
                    path, tool::shardReportJson(report))) {
                std::fprintf(stderr, "cannot write %s\n",
                             path.c_str());
                status.io_error = true;
                continue;
            }
            std::printf("sharded  %-28s shard %zu/%zu: %4zu of "
                        "%4zu cells (%zu executed, %zu cached) "
                        "-> %s\n",
                        named.name.c_str(), shard.index,
                        shard.count, report.outcomes.size(),
                        report.expandedCount,
                        report.executedCount, report.cacheHits,
                        path.c_str());
            continue;
        }

        if (mode == Mode::Record) {
            // The recorded format: explicit flags win; otherwise
            // each spec inherits the shape (accuracy fields +
            // absEps) of its golden under --format-from, so a
            // re-record into a scratch directory reproduces the
            // committed files byte-for-byte (the CI schema-drift
            // job relies on this).
            bool record_accuracy =
                with_accuracy || accuracy_eps.has_value();
            double eps = accuracy_eps.value_or(0.0);
            std::string prior_text;
            if (tool::readTextFile(format_from + "/" + named.name +
                                       ".json",
                                   prior_text)) {
                if (const auto prior =
                        parseGoldenJson(prior_text)) {
                    if (!with_accuracy && !accuracy_eps)
                        record_accuracy = prior->hasAccuracy;
                    if (!accuracy_eps && prior->hasAccuracy)
                        eps = prior->absEps;
                }
            }
            GoldenMatrix actual =
                GoldenMatrix::fromReport(report, record_accuracy);
            actual.absEps = eps;
            const std::string golden_path =
                golden_dir + "/" + named.name + ".json";
            if (!tool::writeTextFile(golden_path,
                                     goldenJson(actual))) {
                std::fprintf(stderr, "cannot write %s\n",
                             golden_path.c_str());
                status.io_error = true;
                continue;
            }
            std::printf("recorded %-28s %4zu cells (%zu executed, "
                        "%zu cached) -> %s\n",
                        named.name.c_str(), report.expandedCount,
                        report.executedCount, report.cacheHits,
                        golden_path.c_str());

            // The disagreement pins ride along with every record.
            // Static-analyzer pins too: re-judge the same grid under
            // the static backend (every simulation is a cache hit
            // from the sweep above) and pin its divergences next to
            // the model's.
            campaign::CampaignEngine::Options static_opts =
                engine_opts;
            static_opts.backend = verdict::VerdictBackend::Static;
            const campaign::CampaignReport static_report =
                campaign::CampaignEngine(static_opts).run(named.spec);
            if (!recordPins(named, report,
                            verdict::VerdictBackend::Differential,
                            golden_dir) ||
                !recordPins(named, static_report,
                            verdict::VerdictBackend::Static,
                            golden_dir))
                status.io_error = true;
            continue;
        }

        checkAgainstGolden(named, report, golden_dir, artifact_dir,
                           status);
        if (backend == verdict::VerdictBackend::Differential ||
            backend == verdict::VerdictBackend::Static)
            checkDisagreements(named, report, backend, golden_dir,
                               artifact_dir, status);
    }

    // A failed cache save only costs the next run its warm start.
    if (mode != Mode::Merge)
        cli::saveCache(cache, cache_file);

    if (status.io_error)
        return 2;
    if (status.drift) {
        std::printf("golden success matrices drifted -- inspect "
                    "the diff above; if the change is intended, "
                    "re-record with: specsec_regress --record\n");
        return 1;
    }
    return 0;
}
