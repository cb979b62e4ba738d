/**
 * @file
 * Substrate performance (google-benchmark): simulator speed,
 * end-to-end attack cost, covert-channel sweeps and graph
 * construction.  After the google-benchmark suites run, two
 * self-timed micro-benches write their headline numbers to
 * BENCH_perf.json: page-table translation on the flat dense table
 * against a reference hash-map implementation (the pre-flat design),
 * and a Prime+Probe prime + recover stream through
 * Cpu::timedAccesses() against a per-line reference loop (the
 * pre-batch receiver).  The translate_flat_speedup and
 * probe_batch_speedup ratios are what the CI perf gate
 * (bench/perf_gate.cc) pins, being same-machine same-process ratios
 * and therefore machine-independent.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "attacks/attack_kit.hh"
#include "attacks/runner.hh"
#include "bench_util.hh"
#include "core/security_dependency.hh"
#include "core/variants.hh"

using namespace specsec;
using namespace specsec::uarch;

namespace
{

void
BM_SimulatorAluLoop(benchmark::State &state)
{
    Memory mem(1 << 20);
    PageTable pt;
    pt.mapRange(0, 1 << 20, PageOwner::User, true, true);
    Cpu cpu(CpuConfig{}, mem, pt);
    Program p;
    p.emit(movImm(1, 0));
    p.emit(movImm(2, 0));
    p.emit(movImm(3, 2000));
    const std::size_t loop = p.size();
    p.emit(add(2, 2, 1));
    p.emit(addImm(1, 1, 1));
    p.emit(branch(Cond::Ltu, 1, 3,
                  static_cast<std::int64_t>(loop)));
    p.emit(halt());
    cpu.loadProgram(p);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        const RunResult r = cpu.run(0);
        instructions += r.committed;
        benchmark::DoNotOptimize(r.cycles);
    }
    state.counters["instructions/s"] = benchmark::Counter(
        static_cast<double>(instructions),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorAluLoop);

void
BM_SpectreV1EndToEnd(benchmark::State &state)
{
    attacks::AttackOptions opt;
    opt.secretLen = 4;
    for (auto _ : state) {
        const auto r = attacks::runSpectreV1(CpuConfig{}, opt);
        benchmark::DoNotOptimize(r.accuracy);
    }
}
BENCHMARK(BM_SpectreV1EndToEnd);

void
BM_MeltdownEndToEnd(benchmark::State &state)
{
    attacks::AttackOptions opt;
    opt.secretLen = 4;
    for (auto _ : state) {
        const auto r = attacks::runMeltdown(CpuConfig{}, opt);
        benchmark::DoNotOptimize(r.accuracy);
    }
}
BENCHMARK(BM_MeltdownEndToEnd);

void
BM_AttackGraphBuild(benchmark::State &state)
{
    for (auto _ : state) {
        for (core::AttackVariant v : core::allVariants()) {
            const auto g = core::buildAttackGraph(v);
            benchmark::DoNotOptimize(g.tsg().nodeCount());
        }
    }
}
BENCHMARK(BM_AttackGraphBuild);

void
BM_ModelDefenseSweep(benchmark::State &state)
{
    for (auto _ : state) {
        for (core::AttackVariant v : core::allVariants()) {
            const auto g = core::buildAttackGraph(v);
            for (auto s : core::allDefenseStrategies())
                benchmark::DoNotOptimize(core::defenseBlocks(g, s));
        }
    }
}
BENCHMARK(BM_ModelDefenseSweep);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache{CacheConfig{}};
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(a));
        a += 64;
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_PageTableTranslate(benchmark::State &state)
{
    PageTable pt;
    pt.mapRange(0x100000, 0x300000, PageOwner::User, true, true);
    Addr a = 0x100000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pt.translate(a, AccessType::Read, Privilege::User));
        a = 0x100000 + ((a + 64) & 0x2fffff);
    }
}
BENCHMARK(BM_PageTableTranslate);

/**
 * Reference page table with the pre-flat storage — a VPN-keyed hash
 * map — and translate() logic identical to PageTable's.  Kept here,
 * not in the library, purely as the baseline side of the
 * translate_flat_speedup ratio.
 */
struct MapPageTable
{
    std::unordered_map<Addr, Pte> pages;

    void
    mapRange(Addr base, Addr length, PageOwner owner,
             bool user_accessible, bool writable)
    {
        for (Addr va = base; va < base + length; va += kPageSize) {
            Pte pte;
            pte.physPage = va / kPageSize;
            pte.userAccessible = user_accessible;
            pte.writable = writable;
            pte.owner = owner;
            pages[va / kPageSize] = pte;
        }
    }

    Translation
    translate(Addr vaddr, AccessType type, Privilege privilege,
              bool enclave_mode = false) const
    {
        Translation t;
        const auto it = pages.find(vaddr / kPageSize);
        if (it == pages.end()) {
            t.fault = FaultKind::NotMapped;
            return t;
        }
        const Pte &pte = it->second;
        t.paddr = pte.physPage * kPageSize + (vaddr % kPageSize);
        t.paddrValid = true;
        if (!pte.present) {
            t.fault = FaultKind::NotPresent;
            return t;
        }
        if (pte.reservedBit) {
            t.fault = FaultKind::ReservedBit;
            return t;
        }
        switch (pte.owner) {
          case PageOwner::User:
            break;
          case PageOwner::Kernel:
            if (privilege == Privilege::User) {
                t.fault = FaultKind::Privilege;
                return t;
            }
            break;
          case PageOwner::Enclave:
            if (!enclave_mode) {
                t.fault = FaultKind::Privilege;
                return t;
            }
            break;
          case PageOwner::Vmm:
            if (privilege != Privilege::Vmm) {
                t.fault = FaultKind::Privilege;
                return t;
            }
            break;
        }
        const bool enclave_access =
            enclave_mode && pte.owner == PageOwner::Enclave;
        if (!pte.userAccessible && privilege == Privilege::User &&
            !enclave_access) {
            t.fault = FaultKind::Privilege;
            return t;
        }
        if (type == AccessType::Write && !pte.writable) {
            t.fault = FaultKind::WriteProtect;
            return t;
        }
        return t;
    }
};

/** Translations/sec over @p stream (one untimed warm-up pass). */
template <typename Table>
double
translateRate(const Table &table, const std::vector<Addr> &stream,
              int reps)
{
    std::uint64_t sink = 0;
    for (const Addr a : stream)
        sink += table
                    .translate(a, AccessType::Read, Privilege::User)
                    .paddr;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
        for (const Addr a : stream) {
            const Translation t =
                table.translate(a, AccessType::Read,
                                Privilege::User);
            sink += t.paddr + static_cast<unsigned>(t.fault);
        }
    }
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    benchmark::DoNotOptimize(sink);
    const double n =
        static_cast<double>(stream.size()) * reps;
    return secs > 0.0 ? n / secs : 0.0;
}

/** The canonical scenario layout's mapping calls, on either table. */
template <typename Table>
void
mapScenarioLayout(Table &table)
{
    table.mapRange(0x100000, 256 * kPageSize, PageOwner::User, true,
                   true);
    table.mapRange(0x200000, 0x10000, PageOwner::User, true, true);
    table.mapRange(0x300000, 0x8000, PageOwner::User, true, true);
    table.mapRange(0x310000, kPageSize, PageOwner::User, true, true);
    table.mapRange(0x320000, kPageSize, PageOwner::Kernel, false,
                   true);
}

/**
 * The pre-batch receiver's access: one PageTable::translate and one
 * Cache::access call per line, out of line as Cpu::timedAccess was.
 * Kept here, not in the library, purely as the reference side of the
 * probe_batch_speedup ratio.
 */
[[gnu::noinline]] std::uint32_t
referenceTimedAccess(Cpu &cpu, Addr vaddr)
{
    const Translation t =
        cpu.pageTable().translate(vaddr, AccessType::Read,
                                  cpu.privilege(), cpu.enclaveMode());
    if (t.fault != FaultKind::None || !t.paddrValid)
        return cpu.config().cache.missLatency * 2;
    return cpu.cache().access(t.paddr, cpu.context(), true).latency;
}

/**
 * Median over interleaved rounds of (per-line reference time) /
 * (batch time) for one Prime+Probe prime + recover stream -- every
 * way of each of 256 sets, set by set, twice -- on one scenario Cpu.
 */
double
probeBatchSpeedup()
{
    attacks::Scenario scenario{CpuConfig{}};
    Cpu &cpu = scenario.cpu();
    const CacheConfig &c = cpu.config().cache;
    std::vector<Addr> lines;
    for (std::size_t s = 0; s < 256; ++s)
        for (std::size_t w = 0; w < c.ways; ++w)
            lines.push_back(attacks::Layout::kEvictArray +
                            s * c.lineSize + w * c.sets * c.lineSize);
    std::vector<std::uint32_t> latencies(lines.size());
    const auto reference = [&] {
        for (int pass = 0; pass < 2; ++pass)
            for (std::size_t i = 0; i < lines.size(); ++i)
                latencies[i] = referenceTimedAccess(cpu, lines[i]);
        benchmark::DoNotOptimize(latencies.data());
        benchmark::ClobberMemory();
    };
    const auto batch = [&] {
        for (int pass = 0; pass < 2; ++pass)
            cpu.timedAccesses(lines, true, latencies);
        benchmark::DoNotOptimize(latencies.data());
        benchmark::ClobberMemory();
    };
    const auto seconds = [](const auto &stream) {
        constexpr int kStreams = 200;
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kStreams; ++i)
            stream();
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    seconds(reference); // warm-up
    seconds(batch);
    std::vector<double> ratios;
    for (int round = 0; round < 15; ++round) {
        const double ref_s = seconds(reference);
        const double batch_s = seconds(batch);
        ratios.push_back(batch_s > 0.0 ? ref_s / batch_s : 0.0);
    }
    std::nth_element(ratios.begin(),
                     ratios.begin() + ratios.size() / 2, ratios.end());
    return ratios[ratios.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip our own --json flag, then hand the rest to
    // google-benchmark as usual.
    std::string json_path = "BENCH_perf.json";
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else
            args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // Flat vs. hash-map translate micro-bench.  The address stream
    // mixes hot probe-array pages, victim data, an unmapped hole and
    // a privileged page, so both fault and fast paths are exercised
    // with an identical access pattern on both tables.
    PageTable flat;
    MapPageTable reference;
    mapScenarioLayout(flat);
    mapScenarioLayout(reference);
    std::vector<Addr> stream;
    stream.reserve(1 << 16);
    Addr a = 0x100000;
    for (std::size_t i = 0; i < (1u << 16); ++i) {
        stream.push_back(0x100000 + (a & 0x2fffff));
        a = a * 2654435761u + 64;
    }
    constexpr int kReps = 64;
    const double map_rate = translateRate(reference, stream, kReps);
    const double flat_rate = translateRate(flat, stream, kReps);
    const double flat_speedup =
        map_rate > 0.0 ? flat_rate / map_rate : 0.0;
    std::printf("\ntranslate: flat %.1fM/s  map %.1fM/s  "
                "speedup %.2fx\n",
                flat_rate / 1e6, map_rate / 1e6, flat_speedup);

    const double batch_speedup = probeBatchSpeedup();
    std::printf("probe batch: P+P prime+recover %.2fx faster than "
                "the per-line loop (median of 15 rounds)\n",
                batch_speedup);

    bench::BenchJson out;
    out.set("bench", std::string("perf"));
    out.set("translate_flat_per_sec", flat_rate);
    out.set("translate_map_per_sec", map_rate);
    out.set("translate_flat_speedup", flat_speedup);
    out.set("probe_batch_speedup", batch_speedup);
    return out.save(json_path) ? 0 : 1;
}
