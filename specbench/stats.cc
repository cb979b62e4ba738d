#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace specbench
{

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::size_t
Summary::beyondTail() const
{
    return static_cast<std::size_t>(
        std::floor(static_cast<double>(count) * (1.0 - tailQ) +
                   1e-9));
}

Summary
summarize(const std::vector<double> &samples, double tail_q,
          std::size_t blocks)
{
    Summary s;
    s.p50 = percentile(samples, 0.5);
    s.tailQ = tail_q;
    s.count = samples.size();
    s.blocks = std::clamp<std::size_t>(blocks, 1,
                                       std::max<std::size_t>(
                                           samples.size(), 1));
    std::vector<double> tails;
    for (std::size_t b = 0; b < s.blocks; ++b) {
        const auto lo = samples.begin() +
                        static_cast<std::ptrdiff_t>(b * s.count /
                                                    s.blocks);
        const auto hi = samples.begin() +
                        static_cast<std::ptrdiff_t>((b + 1) * s.count /
                                                    s.blocks);
        tails.push_back(percentile(std::vector<double>(lo, hi), tail_q));
    }
    s.tail = percentile(tails, 0.5);
    return s;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
Tracer::open(const std::string &name, std::uint64_t parent,
             std::uint64_t pass)
{
    if (!enabled_)
        return 0;
    Span span;
    span.parent = parent;
    span.pass = pass;
    span.name = name;
    span.start = nowSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    span.id = spans_.size() + 1;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

void
Tracer::close(std::uint64_t id)
{
    if (id == 0)
        return;
    const double end = nowSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    if (id <= spans_.size())
        spans_[id - 1].end = end;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        const auto parent = index.find(s.parent);
        if (s.parent != 0 && parent != index.end())
            children[parent->second].emplace_back(s.start, s.end);
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].start;
        const double hi = spans[i].end;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double runStart = 0.0, runEnd = 0.0;
        bool inRun = false;
        for (auto [a, b] : kids) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a)
                continue;
            if (inRun && a <= runEnd) {
                runEnd = std::max(runEnd, b);
                continue;
            }
            if (inRun)
                covered += runEnd - runStart;
            runStart = a;
            runEnd = b;
            inRun = true;
        }
        if (inRun)
            covered += runEnd - runStart;
        self[i] = std::max(0.0, (hi - lo) - covered);
    }
    return self;
}

std::map<std::string, SpanTotals>
totalsByName(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, SpanTotals> totals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanTotals &t = totals[spans[i].name];
        ++t.count;
        t.total += spans[i].end - spans[i].start;
        t.self += self[i];
    }
    return totals;
}

std::string
traceJson(const std::vector<Span> &spans)
{
    const double origin = spans.empty() ? 0.0 : spans.front().start;
    std::string out = "{\"spans\": [\n";
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::snprintf(buf, sizeof buf,
                      "  {\"id\": %llu, \"parent\": %llu, \"pass\": "
                      "%llu, \"name\": \"%s\", \"start_us\": %.3f, "
                      "\"end_us\": %.3f}%s\n",
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.pass),
                      s.name.c_str(), (s.start - origin) * 1e6,
                      (s.end - origin) * 1e6,
                      i + 1 == spans.size() ? "" : ",");
        out += buf;
    }
    out += "], \"totals\": {\n";
    const auto totals = totalsByName(spans);
    std::size_t n = 0;
    for (const auto &[name, t] : totals) {
        std::snprintf(buf, sizeof buf,
                      "  \"%s\": {\"count\": %zu, \"total_ms\": %.6f, "
                      "\"self_ms\": %.6f}%s\n",
                      name.c_str(), t.count, t.total * 1e3,
                      t.self * 1e3, ++n == totals.size() ? "" : ",");
        out += buf;
    }
    out += "}}\n";
    return out;
}

} // namespace specbench
