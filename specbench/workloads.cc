#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench.hh"
#include "campaign/sink.hh"
#include "regress/golden.hh"
#include "regress/specs.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "tool/report.hh"
#include "tool/stream_export.hh"
#include "verdict/differential.hh"

namespace specbench
{

namespace regress = specsec::regress;
namespace serve = specsec::serve;
namespace tool = specsec::tool;
namespace verdict = specsec::verdict;

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
Checks::fail(const std::string &message)
{
    ++attempted_;
    const std::uint64_t n = ++failed_;
    std::lock_guard<std::mutex> lock(mutex_);
    if (n <= 20)
        std::fprintf(stderr, "specbench: check failed: %s\n",
                     message.c_str());
}

campaign::ScenarioSpec
sweepSpec(std::uint64_t seed)
{
    campaign::ScenarioSpec spec =
        campaign::ScenarioSpec::defenseMatrix();
    spec.name = "sweep";
    spec.robSizes = {16, 32, 64, 128, 192, 224};
    spec.permCheckLatencies = {5, 10, 20, 40};
    spec.channels = {specsec::core::CovertChannelKind::FlushReload,
                     specsec::core::CovertChannelKind::PrimeProbe};
    // One independent stream per axis, so each axis's order is a
    // pure function of the seed.
    permute(spec.variants, seed * 5 + 0);
    permute(spec.defenses, seed * 5 + 1);
    permute(spec.robSizes, seed * 5 + 2);
    permute(spec.permCheckLatencies, seed * 5 + 3);
    permute(spec.channels, seed * 5 + 4);
    return spec;
}

std::vector<Cell>
uniqueCells(const std::vector<campaign::ScenarioSpec> &specs)
{
    std::vector<Cell> cells;
    std::unordered_set<std::string> seen;
    for (const campaign::ScenarioSpec &spec : specs) {
        const campaign::ExpandedGrid grid = campaign::dedupGrid(spec);
        for (const std::size_t i : grid.uniqueIndices) {
            const campaign::Scenario &s = grid.expanded[i];
            if (seen.insert(s.key).second)
                cells.push_back({s.variant, s.config, s.options, s.key});
        }
    }
    return cells;
}

bool
fingerprintCells(const std::vector<Cell> &cells, unsigned workers,
                 FingerprintSet &out, std::string *error)
{
    std::vector<std::string> keys;
    keys.reserve(cells.size());
    for (const Cell &c : cells)
        keys.push_back(c.key);
    std::vector<std::string> prints(keys.size());
    if (!campaign::executeKeyBatch(
            keys, workers, nullptr,
            [&](std::size_t i, const campaign::KeyBatchItem &item) {
                prints[i] = fingerprint(item.result, item.stats);
                return true;
            },
            error))
        return false;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (!out.add(keys[i], prints[i])) {
            *error = "key hash collision at " + keys[i];
            return false;
        }
    }
    return true;
}

namespace
{

double
secondsSince(double start)
{
    return nowSeconds() - start;
}

/**
 * Whether another round, started now, ends nearer @p deadline than
 * stopping now does, judged by the round that began at @p start.
 * A 2.6 s sweep round would otherwise overrun each stretch by half a
 * round on average.
 */
bool
beforeDeadline(double start, double deadline)
{
    const double now = nowSeconds();
    return now + (now - start) / 2 < deadline;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
loadPrints(const Options &options, FingerprintSet &prints)
{
    std::string error;
    if (!prints.load(options.fingerprintPath, &error))
        throw std::runtime_error(error);
}

/** Wall seconds the executed (not cached) cells of a run took. */
double
executedSeconds(const campaign::CampaignReport &report)
{
    std::unordered_set<std::string> seen;
    double ms = 0.0;
    for (const campaign::ScenarioOutcome &o : report.outcomes)
        if (o.wallMillis > 0.0 &&
            seen.insert(campaign::scenarioKey(o.variant, o.config,
                                              o.options))
                .second)
            ms += o.wallMillis;
    return ms / 1e3;
}

// ---------------------------------------------------------------- gate

/**
 * The golden gate: each registered spec under the simulator and the
 * static backend, each backend with a fresh ResultCache per pass
 * (one `specsec_regress --check` invocation per backend).
 */
class GateWorkload final : public Workload
{
  public:
    GateWorkload(const Options &options, Checks &checks)
        : options_(options), checks_(checks)
    {
    }

    void
    setup() override
    {
        specs_.clear();
        for (const regress::NamedSpec &named :
             regress::registeredSpecs()) {
            Spec s{&named, {}, {}};
            std::string text, error;
            const std::string golden =
                options_.goldenDir + "/" + named.name + ".json";
            if (!tool::readTextFile(golden, text))
                throw std::runtime_error("cannot read " + golden);
            auto parsed = regress::parseGoldenJson(text, &error);
            if (!parsed)
                throw std::runtime_error(golden + ": " + error);
            s.golden = std::move(*parsed);
            s.pins.spec = named.name;
            const std::string pins = options_.goldenDir +
                                     "/differential-static-" +
                                     named.name + ".json";
            if (tool::readTextFile(pins, text)) {
                auto pinned = verdict::parseDisagreementJson(text,
                                                             &error);
                if (!pinned)
                    throw std::runtime_error(pins + ": " + error);
                s.pins = std::move(*pinned);
            }
            specs_.push_back(std::move(s));
        }
        permute(specs_, options_.seed);
        // Warm the process-wide snapshot pools the way the first
        // spec of a CI run does; this pass is checked too.
        Rounds warm;
        Tracer off;
        pass(options_.nproc, warm, off, 0);
    }

    Rounds
    measure(double seconds, Tracer &tracer) override
    {
        Rounds r;
        const double deadline = nowSeconds() + seconds;
        std::uint64_t id = 1;
        double t0 = 0.0;
        do {
            t0 = nowSeconds();
            const std::size_t cells =
                pass(options_.nproc, r, tracer, id++);
            const double wall = secondsSince(t0);
            r.roundMsN.push_back(wall * 1e3);
            r.rateN.push_back(cells / wall);
            r.workerSeconds += options_.nproc * wall;

            Rounds serial;
            const double t1 = nowSeconds();
            const std::size_t cells1 = pass(1, serial, tracer, id++);
            r.rate1.push_back(cells1 / secondsSince(t1));
        } while (beforeDeadline(t0, deadline) && !options_.smoke);
        return r;
    }

    std::vector<Cell>
    cells() const override
    {
        return uniqueCells(specs());
    }

    std::vector<campaign::ScenarioSpec>
    specs() const override
    {
        std::vector<campaign::ScenarioSpec> out;
        for (const Spec &s : specs_)
            out.push_back(s.named->spec);
        return out;
    }

    std::vector<std::vector<std::string>>
    submits() const override
    {
        std::vector<std::vector<std::string>> out;
        for (const Spec &s : specs_) {
            const campaign::ExpandedGrid grid =
                campaign::dedupGrid(s.named->spec);
            std::vector<std::string> keys;
            for (const std::size_t i : grid.uniqueIndices)
                keys.push_back(grid.expanded[i].key);
            out.push_back(std::move(keys));
        }
        return out;
    }

  private:
    struct Spec
    {
        const regress::NamedSpec *named;
        regress::GoldenMatrix golden;
        verdict::DisagreementSet pins;
    };

    /** One full gate pass; @return unique cells judged. */
    std::size_t
    pass(unsigned workers, Rounds &r, Tracer &tracer,
         std::uint64_t id)
    {
        ScopedSpan passSpan(tracer, "gate.pass", 0, id);
        std::size_t cells = 0;
        for (const verdict::VerdictBackend backend :
             {verdict::VerdictBackend::Simulator,
              verdict::VerdictBackend::Static}) {
            campaign::ResultCache cache;
            campaign::CampaignEngine::Options eo;
            eo.workers = workers;
            eo.cache = &cache;
            eo.backend = backend;
            const campaign::CampaignEngine engine(eo);
            for (const Spec &s : specs_) {
                campaign::CampaignReport report;
                {
                    ScopedSpan span(tracer, "campaign.run",
                                    passSpan.id(), id);
                    report = engine.run(s.named->spec);
                }
                cells += report.uniqueCount;
                r.cacheLookups += report.uniqueCount;
                r.cacheHits += report.cacheHits;
                if (tracer.enabled() && workers == options_.nproc)
                    r.busySeconds += executedSeconds(report);
                {
                    ScopedSpan span(tracer, "regress.compare",
                                    passSpan.id(), id);
                    compare(s, report);
                }
                if (backend == verdict::VerdictBackend::Static) {
                    ScopedSpan span(tracer, "verdict.pins",
                                    passSpan.id(), id);
                    comparePins(s, report);
                }
            }
        }
        return cells;
    }

    void
    compare(const Spec &s, const campaign::CampaignReport &report)
    {
        regress::GoldenMatrix actual = regress::GoldenMatrix::fromReport(
            report, s.golden.hasAccuracy);
        actual.absEps = s.golden.absEps;
        const regress::MatrixDiff diff =
            regress::compareGolden(s.golden, actual);
        if (diff.empty())
            checks_.pass();
        else
            checks_.fail(s.named->name + " drifted from golden:\n" +
                         regress::renderDiff(diff));
    }

    /** The static backend's divergences against its pins. */
    void
    comparePins(const Spec &s, const campaign::CampaignReport &report)
    {
        verdict::DisagreementSet fresh;
        fresh.spec = s.named->name;
        std::unordered_set<std::string> seen;
        for (const campaign::ScenarioOutcome &o : report.outcomes) {
            if (o.agreement != "disagree")
                continue;
            verdict::Disagreement d;
            d.key = campaign::scenarioKey(o.variant, o.config,
                                          o.options);
            if (!seen.insert(d.key).second)
                continue;
            d.row = o.rowLabel;
            d.col = o.colLabel;
            d.model = o.modelVerdict;
            d.simulator = o.result.leaked ? "leak" : "blocked";
            d.evidence = o.evidence;
            fresh.disagreements.push_back(std::move(d));
        }
        const std::vector<std::string> drift =
            verdict::compareDisagreements(s.pins, fresh);
        if (drift.empty())
            checks_.pass();
        else
            checks_.fail(s.named->name + " static pins drifted: " +
                         drift.front());
    }

    const Options &options_;
    Checks &checks_;
    std::vector<Spec> specs_;
};

// --------------------------------------------------------------- sweep

/**
 * The researcher's knob sweep: cold cache, JSONL streamed to a
 * file, one serial and one nproc pass per round pair.
 */
class SweepWorkload final : public Workload
{
  public:
    SweepWorkload(const Options &options, Checks &checks)
        : options_(options), checks_(checks)
    {
    }

    void
    setup() override
    {
        loadPrints(options_, prints_);
        spec_ = sweepSpec(options_.seed);
        uniqueCount_ = campaign::dedupGrid(spec_).uniqueIndices.size();
    }

    Rounds
    measure(double seconds, Tracer &tracer) override
    {
        Rounds r;
        const double deadline = nowSeconds() + seconds;
        std::uint64_t id = 1;
        const std::string pathN = options_.workDir + "/sweep-wN.jsonl";
        const std::string path1 = options_.workDir + "/sweep-w1.jsonl";
        double start = 0.0;
        do {
            start = nowSeconds();
            const double wallN =
                pass(options_.nproc, pathN, r, tracer, id++);
            r.roundMsN.push_back(wallN * 1e3);
            r.rateN.push_back(uniqueCount_ / wallN);
            r.workerSeconds += options_.nproc * wallN;
            Rounds serial;
            const double wall1 = pass(1, path1, serial, tracer, id++);
            r.rate1.push_back(uniqueCount_ / wall1);
            if (readFile(pathN) == readFile(path1))
                checks_.pass();
            else
                checks_.fail("sweep exports differ between 1 and " +
                             std::to_string(options_.nproc) +
                             " workers");
        } while (beforeDeadline(start, deadline) && !options_.smoke);
        return r;
    }

    std::vector<Cell>
    cells() const override
    {
        return uniqueCells({spec_});
    }

    std::vector<campaign::ScenarioSpec>
    specs() const override
    {
        return {spec_};
    }

    std::vector<std::vector<std::string>>
    submits() const override
    {
        std::vector<std::string> keys;
        for (const Cell &c : cells())
            keys.push_back(c.key);
        return {keys};
    }

  private:
    /** One cold-cache pass; @return its wall seconds. */
    double
    pass(unsigned workers, const std::string &path, Rounds &r,
         Tracer &tracer, std::uint64_t id)
    {
        campaign::ResultCache cache;
        campaign::CampaignEngine::Options eo;
        eo.workers = workers;
        eo.cache = &cache;
        const campaign::CampaignEngine engine(eo);
        campaign::ReportSink *report = nullptr;
        campaign::ReportSink reportSink;
        if (tracer.enabled() && workers == options_.nproc)
            report = &reportSink;

        const double t0 = nowSeconds();
        {
            ScopedSpan passSpan(tracer, "sweep.pass", 0, id);
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            tool::JsonlStreamSink jsonl(out);
            std::vector<campaign::OutcomeSink *> sinks{&jsonl};
            if (report)
                sinks.push_back(report);
            {
                ScopedSpan span(tracer, "campaign.run", passSpan.id(),
                                id);
                engine.run(spec_, sinks);
            }
            ScopedSpan span(tracer, "tool.export_close", passSpan.id(),
                            id);
            out.close();
            if (!out)
                checks_.fail("cannot write " + path);
        }
        const double wall = secondsSince(t0);

        r.cacheLookups += uniqueCount_;
        r.cacheHits += cache.hits();
        if (report)
            r.busySeconds += executedSeconds(report->report());
        if (cache.size() != uniqueCount_)
            checks_.fail("sweep cached " + std::to_string(cache.size()) +
                         " of " + std::to_string(uniqueCount_) +
                         " cells");
        for (const auto &[key, entry] : cache.snapshot()) {
            const std::string bad =
                prints_.check(key, entry.result, entry.stats);
            if (bad.empty())
                checks_.pass();
            else
                checks_.fail(bad);
        }
        return wall;
    }

    const Options &options_;
    Checks &checks_;
    FingerprintSet prints_;
    campaign::ScenarioSpec spec_;
    std::size_t uniqueCount_ = 0;
};

// ---------------------------------------------------------- serve-warm

/** Client-side sink: JSONL export plus what the checks need. */
class BatchSink final : public campaign::OutcomeSink
{
  public:
    void
    begin(const campaign::CampaignHeader &header) override
    {
        jsonl_.begin(header);
    }

    void
    consume(const campaign::ScenarioOutcome &o) override
    {
        if (firstResult == 0.0)
            firstResult = nowSeconds();
        jsonl_.consume(o);
        results.push_back({o.gridIndex, o.wallMillis, o.result, o.stats});
    }

    void
    end(const campaign::CampaignFooter &f) override
    {
        jsonl_.end(f);
        footer = f;
    }

    struct Item
    {
        std::size_t gridIndex;
        double wallMillis; ///< 0 when the daemon served it cached
        specsec::attacks::AttackResult result;
        specsec::uarch::CpuStats stats;
    };

    double firstResult = 0.0; ///< when the first result arrived
    campaign::CampaignFooter footer;
    std::vector<Item> results;
    std::ostringstream exportText; ///< the client-side JSONL export

  private:
    tool::JsonlStreamSink jsonl_{exportText};
};

/**
 * A warm daemon under a closed loop: every client sends its next
 * submit only after the previous one's `done`.  Requests are each
 * registered spec's grid plus fixed-size slices of the sweep grid.
 */
class ServeWarmWorkload final : public Workload
{
  public:
    /// Keys per sweep slice: the size of the largest gate spec, so
    /// batch sizes span 7..144 keys.
    static constexpr std::size_t kSliceKeys = 144;
    /// Length of one measured stretch (see measure()).
    static constexpr double kStretchSeconds = 0.5;

    ServeWarmWorkload(const Options &options, Checks &checks)
        : options_(options), checks_(checks),
          workers_(std::max(1u, options.nproc / 2)),
          cachePath_(options.workDir + "/serve-warm-cache.json")
    {
        // Produce the persisted cache the daemon starts from: every
        // gate and sweep key, simulated once per process.  This is
        // preparation for the set-ups, not part of them.
        std::vector<campaign::ScenarioSpec> all;
        for (const regress::NamedSpec &named :
             regress::registeredSpecs())
            all.push_back(named.spec);
        all.push_back(sweepSpec(0));
        std::vector<std::string> keys;
        for (const Cell &c : uniqueCells(all))
            keys.push_back(c.key);
        campaign::ResultCache cache;
        std::string error;
        const double t0 = nowSeconds();
        if (!campaign::executeKeyBatch(
                keys, options.nproc, &cache,
                [](std::size_t, const campaign::KeyBatchItem &) {
                    return true;
                },
                &error))
            throw std::runtime_error(error);
        std::remove(cachePath_.c_str());
        if (!cache.saveToFile(cachePath_, campaign::modelFingerprint(),
                              &error))
            throw std::runtime_error(error);
        std::fprintf(stderr,
                     "specbench: serve-warm cache of %zu keys "
                     "simulated and saved in %.3f s\n",
                     cache.size(), secondsSince(t0));
    }

    ~ServeWarmWorkload() override { teardown(); }

    void
    setup() override
    {
        teardown();
        loadPrints(options_, prints_);

        requests_.clear();
        for (const regress::NamedSpec &named :
             regress::registeredSpecs()) {
            Request q;
            q.spec = named.spec;
            q.grid = campaign::dedupGrid(q.spec);
            q.keys = q.grid.uniqueIndices.size();
            requests_.push_back(std::move(q));
        }
        const campaign::ScenarioSpec sweep = sweepSpec(options_.seed);
        auto sweepGrid = std::make_shared<campaign::ExpandedGrid>(
            campaign::dedupGrid(sweep));
        for (std::size_t lo = 0; lo < sweepGrid->uniqueIndices.size();
             lo += kSliceKeys) {
            Request q;
            q.spec = sweep;
            q.sliceGrid = sweepGrid;
            const std::size_t hi = std::min(
                lo + kSliceKeys, sweepGrid->uniqueIndices.size());
            for (std::size_t u = lo; u < hi; ++u)
                q.slice.push_back(sweepGrid->uniqueIndices[u]);
            q.keys = q.slice.size();
            q.header = serve::headerForGrid(sweep, *sweepGrid, {}, 1);
            q.header.gridIndices = q.slice;
            q.header.shardUniqueCount = q.slice.size();
            requests_.push_back(std::move(q));
        }
        permute(requests_, options_.seed);

        campaign::ResultCache loaded;
        std::string error;
        if (!loaded.loadFromFile(cachePath_,
                                 campaign::modelFingerprint(), &error))
            throw std::runtime_error("load " + cachePath_ + ": " +
                                     error);

        serve::Server::Options so;
        so.workers = workers_;
        server_ = std::make_unique<serve::Server>(so);
        if (!server_->start(&error))
            throw std::runtime_error("serve: " + error);
        serverThread_ = std::thread([this] { server_->serveForever(); });
        endpoint_.port = server_->port();

        serve::Client admin;
        if (!admin.connect(endpoint_, &error))
            throw std::runtime_error("connect: " + error);
        std::vector<serve::CacheEntryMsg> chunk;
        std::size_t stored = 0;
        const auto flush = [&] {
            std::size_t n = 0;
            if (!admin.cachePut(chunk, &n, &error))
                throw std::runtime_error("cache put: " + error);
            stored += n;
            chunk.clear();
        };
        for (auto &[key, entry] : loaded.snapshot()) {
            chunk.push_back({key, entry.result, entry.stats});
            if (chunk.size() == 512)
                flush();
        }
        if (!chunk.empty())
            flush();
        if (stored != loaded.size())
            throw std::runtime_error("daemon stored " +
                                     std::to_string(stored) + " of " +
                                     std::to_string(loaded.size()) +
                                     " cache entries");
        admin.close();

        clients_.clear();
        for (unsigned i = 0; i < workers_; ++i) {
            clients_.push_back(std::make_unique<serve::Client>());
            if (!clients_.back()->connect(endpoint_, &error))
                throw std::runtime_error("connect: " + error);
        }
    }

    void
    teardown() override
    {
        for (auto &c : clients_)
            c->close();
        clients_.clear();
        if (server_)
            server_->stop();
        if (serverThread_.joinable())
            serverThread_.join();
        server_.reset();
    }

    Rounds
    measure(double seconds, Tracer &tracer) override
    {
        Rounds r;
        std::vector<double> latencies;
        // One client for the first third, nproc/2 for the rest.  Each
        // part is cut into stretches of about half a second, so the
        // cells_per_s metrics rest on one rate per stretch.
        const auto stretches = [&](unsigned clients, double part,
                                   std::vector<double> &rates,
                                   std::vector<double> *lat) {
            const int n =
                std::max(1, static_cast<int>(part / kStretchSeconds));
            for (int k = 0; k < n; ++k) {
                const double t0 = nowSeconds();
                const double keys =
                    loop(clients, part / n, r, tracer, lat);
                const double wall = secondsSince(t0);
                rates.push_back(keys / wall);
                if (lat)
                    r.workerSeconds += clients * wall;
            }
        };
        stretches(1, seconds / 3, r.rate1, nullptr);
        stretches(workers_, seconds * 2 / 3, r.rateN, &latencies);
        r.roundMsN = std::move(latencies);
        return r;
    }

    std::vector<Cell>
    cells() const override
    {
        return uniqueCells(specs());
    }

    std::vector<campaign::ScenarioSpec>
    specs() const override
    {
        std::vector<campaign::ScenarioSpec> out;
        for (const regress::NamedSpec &named :
             regress::registeredSpecs())
            out.push_back(named.spec);
        out.push_back(sweepSpec(options_.seed));
        return out;
    }

    std::vector<std::vector<std::string>>
    submits() const override
    {
        std::vector<std::vector<std::string>> out;
        for (const Request &q : requests_) {
            std::vector<std::string> keys;
            if (q.sliceGrid)
                for (const std::size_t e : q.slice)
                    keys.push_back(q.sliceGrid->expanded[e].key);
            else
                for (const std::size_t i : q.grid.uniqueIndices)
                    keys.push_back(q.grid.expanded[i].key);
            out.push_back(std::move(keys));
        }
        return out;
    }

  private:
    struct Request
    {
        campaign::ScenarioSpec spec;
        campaign::ExpandedGrid grid; ///< spec requests
        std::shared_ptr<const campaign::ExpandedGrid> sliceGrid;
        std::vector<std::size_t> slice; ///< expanded indices
        campaign::CampaignHeader header; ///< announces the slice
        std::size_t keys = 0;
    };

    /**
     * @p clients closed-loop clients for @p seconds (at least one
     * batch each); @return keys returned.
     */
    double
    loop(unsigned clients, double seconds, Rounds &r, Tracer &tracer,
         std::vector<double> *latencies)
    {
        const double deadline = nowSeconds() + seconds;
        std::atomic<std::size_t> next{0};
        std::mutex mutex; // guards r, latencies, keys
        double keys = 0.0;
        const auto client = [&](serve::Client &c) {
            do {
                const std::size_t n = next.fetch_add(1);
                const Request &q = requests_[n % requests_.size()];
                BatchSink sink;
                std::string error;
                bool ok = false;
                const double t0 = nowSeconds();
                {
                    ScopedSpan span(tracer, "serve.batch", 0, n + 1);
                    ok = q.sliceGrid
                             ? c.runSubset(
                                   *q.sliceGrid, q.header, q.slice,
                                   {&sink}, &error)
                             : c.run(q.spec, {&sink}, {}, &error);
                }
                const double wall = secondsSince(t0);
                check(q, ok, error, sink);
                std::lock_guard<std::mutex> lock(mutex);
                keys += static_cast<double>(q.keys);
                if (latencies)
                    latencies->push_back(wall * 1e3);
                if (sink.firstResult > 0.0)
                    r.firstResultMs.push_back(
                        (sink.firstResult - t0) * 1e3);
                r.cacheHits += sink.footer.cacheHits;
                r.cacheLookups += sink.footer.cacheHits +
                                  sink.footer.executedCount;
                if (latencies)
                    for (const BatchSink::Item &item : sink.results)
                        r.busySeconds += item.wallMillis / 1e3;
            } while (nowSeconds() < deadline && !options_.smoke);
        };
        std::vector<std::thread> threads;
        for (unsigned i = 0; i < clients; ++i)
            threads.emplace_back(client, std::ref(*clients_[i]));
        for (std::thread &t : threads)
            t.join();
        return keys;
    }

    void
    check(const Request &q, bool ok, const std::string &error,
          const BatchSink &sink)
    {
        if (!ok) {
            checks_.fail("submit failed: " + error);
            return;
        }
        const campaign::ExpandedGrid &grid =
            q.sliceGrid ? *q.sliceGrid : q.grid;
        const std::size_t expected =
            q.sliceGrid ? q.slice.size() : grid.expanded.size();
        if (sink.results.size() != expected)
            checks_.fail("batch returned " +
                         std::to_string(sink.results.size()) + " of " +
                         std::to_string(expected) + " cells");
        else
            checks_.pass();
        for (const BatchSink::Item &item : sink.results) {
            const std::string bad =
                prints_.check(grid.expanded.at(item.gridIndex).key,
                              item.result, item.stats);
            if (bad.empty())
                checks_.pass();
            else
                checks_.fail(bad);
        }
    }

    const Options &options_;
    Checks &checks_;
    const unsigned workers_;
    const std::string cachePath_;
    FingerprintSet prints_;
    std::vector<Request> requests_;
    std::unique_ptr<serve::Server> server_;
    std::thread serverThread_;
    serve::net::Endpoint endpoint_;
    std::vector<std::unique_ptr<serve::Client>> clients_;
};

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"gate", "sweep", "serve-warm"};
}

std::unique_ptr<Workload>
makeWorkload(const Options &options, Checks &checks)
{
    if (options.workload == "gate")
        return std::make_unique<GateWorkload>(options, checks);
    if (options.workload == "sweep")
        return std::make_unique<SweepWorkload>(options, checks);
    if (options.workload == "serve-warm")
        return std::make_unique<ServeWarmWorkload>(options, checks);
    return nullptr;
}

} // namespace specbench
