// Self-test of the benchmark's own rules: the nearest-rank percentile,
// the tail-percentile rule (the highest percentile with at least ten
// samples beyond it), the rate-ladder decision and span self time.
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench.hh"

namespace pb {

namespace {

int failures = 0;

void
expect(bool ok, const char* what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL %s\n", what);
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9 * std::max(1.0, std::fabs(b));
}

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i)
        v.push_back(double(i)); // descending: percentile must sort
    return v;
}

} // namespace

int
selfTest()
{
    failures = 0;
    // Nearest rank over 1..100: p50 = 50, p99 = 99, p100 = 100.
    expect(percentile(oneTo(100), 50.0) == 50.0, "p50 of 1..100");
    expect(percentile(oneTo(100), 99.0) == 99.0, "p99 of 1..100");
    expect(percentile(oneTo(100), 100.0) == 100.0, "max of 1..100");
    expect(percentile(oneTo(1), 99.0) == 1.0, "p99 of one sample");
    expect(percentile({}, 50.0) == 0.0, "empty sample");
    expect(percentile(oneTo(1000), 99.0) == 990.0, "p99 of 1..1000");

    // Tail rule: ten samples strictly beyond the percentile's rank.
    expect(tailPercentile(10000) == 99.9, "10000 samples support p99.9");
    expect(tailPercentile(9999) == 99.0, "9999 samples stop at p99");
    expect(tailPercentile(1000) == 99.0, "1000 samples support p99");
    expect(tailPercentile(999) == 95.0, "999 samples stop at p95");
    expect(tailPercentile(200) == 95.0, "200 samples support p95");
    expect(tailPercentile(20) == 50.0, "20 samples support only p50");
    expect(tailPercentile(19) == 0.0, "19 samples support nothing");

    // Chunked percentile: a low percentile of per-chunk percentiles. 60
    // samples hold three p50 chunks; one chunk with a burst of huge
    // values moves nothing.
    std::vector<double> burst;
    for (int c = 0; c < 3; ++c)
        for (int i = 0; i < 20; ++i)
            burst.push_back(c == 1 ? 1000.0 : double(i % 5));
    expect(chunkedPercentile(burst, 50.0) == 2.0, "a burst in one chunk is ignored");
    std::vector<double> steps;
    for (int c = 0; c < 4; ++c)
        for (int i = 0; i < 20; ++i)
            steps.push_back(double(4 - c));
    expect(chunkedPercentile(steps, 50.0) == 1.0,
           "calmest of four chunk medians");
    expect(percentile(burst, 50.0) == 3.0 && percentile(burst, 90.0) == 1000.0,
           "plain percentile sees the burst in the tail");
    expect(chunkedPercentile(burst, 90.0) == 1000.0,
           "too few samples for two p90 chunks: plain p90");
    expect(minSamples(99.0) == 1000 && minSamples(95.0) == 200 &&
               minSamples(50.0) == 20,
           "minimum samples per percentile");

    // Ladder: pass = p99 (misses infinite) within the limit and no
    // growing backlog.
    const double lim = 4.0;
    const double kInf = std::numeric_limits<double>::infinity();
    std::vector<Rung> allPass = {{1000, 1, false},
                                 {2000, 2, false},
                                 {3000, 3, false}};
    expect(maxSustainableRate(allPass, lim) == 3000.0, "every rung passes");
    std::vector<Rung> interp = {{2000, 8, false},
                                {1000, 2, false}};
    expect(near(maxSustainableRate(interp, lim), 1500.0),
           "log-p99 interpolation (unsorted input)");
    std::vector<Rung> firstFails = {{1000, 5, false},
                                    {2000, 9, false}};
    expect(maxSustainableRate(firstFails, lim) == 0.0, "lowest rung fails");
    std::vector<Rung> shed = {{1000, 1, false},
                              {2000, kInf, false},
                              {3000, 3, false}};
    expect(maxSustainableRate(shed, lim) == 1000.0,
           "misses past 1% make the p99 infinite and fail the rung");
    std::vector<Rung> backlog = {{1000, 1, false},
                                 {2000, 2, true}};
    expect(maxSustainableRate(backlog, lim) == 1000.0,
           "a growing backlog fails the rung");
    std::vector<Rung> gap = {{1000, 1, false},
                             {2000, 3, false},
                             {3000, 40, false},
                             {4000, 2, false}};
    double g = maxSustainableRate(gap, lim);
    expect(g > 2000.0 && g < 3000.0, "stops at the first failing rung");

    // Self time: a child covers part of its parent's interval.
    std::vector<Tracer::Rec> spans = {{"parent", 0, 100'000'000, 1, 0, 7},
                                      {"child", 10'000'000, 40'000'000, 2, 1, 7},
                                      {"child", 50'000'000, 60'000'000, 3, 1, 7}};
    auto st = selfTimes(spans);
    expect(near(st["parent"].selfMs, 60.0), "parent self time");
    expect(near(st["child"].totalMs, 40.0) && st["child"].calls == 2,
           "child totals");

    std::printf("self-test: %s (%d failures)\n",
                failures ? "FAIL" : "ok", failures);
    return failures;
}

} // namespace pb
