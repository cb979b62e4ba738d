/**
 * @file
 * Self-tests of the benchmark's own arithmetic and seed contract:
 * percentiles with their sample counts, span self time, and that
 * two seeds produce the same cells and the same fingerprints.
 * Exit code 0 when every check holds.
 */

#include <cmath>
#include <cstdio>
#include <set>

#include "bench.hh"
#include "core/variants.hh"

namespace
{

using namespace specbench;

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "FAIL: %s\n", what);
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testPercentiles()
{
    expect(percentile({}, 0.5) == 0.0, "empty percentile is 0");
    expect(percentile({7.0}, 0.99) == 7.0, "single sample");
    // Same values as numpy.percentile(..., method="linear").
    const std::vector<double> v{4, 1, 3, 2, 5};
    expect(near(percentile(v, 0.5), 3.0), "odd median");
    expect(near(percentile({1, 2, 3, 4}, 0.5), 2.5), "even median");
    expect(near(percentile(v, 0.9), 4.6), "p90 interpolates");
    expect(near(percentile(v, 0.0), 1.0), "p0 is min");
    expect(near(percentile(v, 1.0), 5.0), "p100 is max");

    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    const Summary s = summarize(hundred, 0.9);
    expect(s.count == 100, "summary sample count");
    expect(near(s.p50, 50.5), "summary median");
    expect(near(s.tail, 90.1), "summary p90");
    expect(s.beyondTail() == 10, "ten samples beyond p90 of 100");
    expect(summarize(hundred, 0.99).beyondTail() == 1,
           "one sample beyond p99 of 100");

    // Blocked tail: one slow block of five moves the plain p90 but
    // not the median of the blocks' p90s.
    std::vector<double> slowBlock;
    for (int b = 0; b < 5; ++b)
        for (int i = 1; i <= 20; ++i)
            slowBlock.push_back(b == 2 ? 100.0 + i : i);
    const Summary plain = summarize(slowBlock, 0.9);
    const Summary blocked = summarize(slowBlock, 0.9, 5);
    expect(plain.tail > 100.0, "plain p90 sees the slow block");
    expect(near(blocked.tail, 18.1), "blocked p90 ignores one block");
    expect(blocked.count == 100 && blocked.blocks == 5 &&
               blocked.beyondTail() == 10,
           "blocked summary keeps its sample count");
    expect(summarize({1.0, 2.0}, 0.9, 5).blocks == 2,
           "no more blocks than samples");
}

Span
span(std::uint64_t id, std::uint64_t parent, double start, double end)
{
    return Span{id, parent, 0, std::to_string(id), start, end};
}

void
testSelfTime()
{
    // Parent [0, 10]; children [1, 3] and [2, 5] overlap (covering
    // [1, 5]), child [8, 12] is clipped to [8, 10]; grandchild
    // [1.5, 2] belongs to child 2 only.
    const std::vector<Span> spans{
        span(1, 0, 0, 10), span(2, 1, 1, 3),   span(3, 1, 2, 5),
        span(4, 1, 8, 12), span(5, 2, 1.5, 2),
    };
    const std::vector<double> self = selfTimes(spans);
    expect(near(self[0], 10 - 4 - 2), "parent self time");
    expect(near(self[1], 2 - 0.5), "child self time minus grandchild");
    expect(near(self[2], 3.0), "leaf self time");
    expect(near(self[3], 4.0), "clipped child keeps its own time");
    const auto totals = totalsByName(spans);
    expect(totals.at("1").count == 1 && near(totals.at("1").total, 10),
           "totals by name");

    Tracer off;
    expect(off.open("x", 0, 0) == 0, "disabled tracer records nothing");
    Tracer on(true);
    {
        ScopedSpan outer(on, "outer");
        ScopedSpan inner(on, "inner", outer.id());
    }
    const std::vector<Span> recorded = on.spans();
    expect(recorded.size() == 2 && recorded[1].parent == recorded[0].id &&
               recorded[0].end >= recorded[1].end,
           "scoped spans nest");
}

void
testSeeds()
{
    // Full grid: the same key set under every seed, in another order.
    std::vector<std::string> a, b;
    for (const Cell &c : uniqueCells({sweepSpec(1)}))
        a.push_back(c.key);
    for (const Cell &c : uniqueCells({sweepSpec(2)}))
        b.push_back(c.key);
    expect(a.size() == 6912, "sweep has 6912 unique cells");
    expect(a != b, "seeds permute the sweep order");
    expect(std::set<std::string>(a.begin(), a.end()) ==
               std::set<std::string>(b.begin(), b.end()),
           "seeds keep the sweep key set");

    // Simulated: a two-variant slice of the sweep fingerprints the
    // same under both seeds.
    FingerprintSet prints[2];
    for (int i = 0; i < 2; ++i) {
        campaign::ScenarioSpec spec = sweepSpec(1 + i);
        std::vector<specsec::core::AttackVariant> keep;
        for (const auto v : spec.variants)
            if (v == specsec::core::AttackVariant::SpectreV1 ||
                v == specsec::core::AttackVariant::Meltdown)
                keep.push_back(v);
        spec.variants = keep;
        std::string error;
        expect(fingerprintCells(uniqueCells({spec}), 2, prints[i], &error),
               "fingerprint a sweep slice");
    }
    expect(prints[0].size() == 2 * 8 * 48, "slice size");
    expect(prints[0] == prints[1], "two seeds, same fingerprints");
}

} // namespace

int
main()
{
    testPercentiles();
    testSelfTime();
    testSeeds();
    if (failures == 0)
        std::printf("specbench self-test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
