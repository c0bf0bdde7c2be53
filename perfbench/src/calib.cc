// Ceilings of the box, measured in the run that uses them. Built with
// the same vector-width preference as the integer kernels
// (perfbench/CMakeLists.txt), so the int16 ceiling is the one those
// kernels could reach.
#include <algorithm>
#include <cpuid.h>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "workloads.hh"

namespace pb {

namespace {

/** Last-level cache bytes from CPUID leaf 4 (0 if unknown). */
size_t
llcBytes()
{
    size_t best = 0;
    for (unsigned sub = 0; sub < 16; ++sub) {
        unsigned a, b, c, d;
        if (!__get_cpuid_count(4, sub, &a, &b, &c, &d) || (a & 31) == 0)
            break;
        size_t ways = ((b >> 22) & 0x3ff) + 1;
        size_t parts = ((b >> 12) & 0x3ff) + 1;
        size_t line = (b & 0xfff) + 1;
        size_t sets = size_t(c) + 1;
        best = std::max(best, ways * parts * line * sets);
    }
    return best;
}

/** Best of five: @p threads threads each add an L1-resident int16
    vector into another, in G adds/s. */
double
int16Adds(int threads)
{
    constexpr size_t kLen = 4096, kReps = 20000;
    double best = 0.0;
    for (int trial = 0; trial < 5; ++trial) {
        Clock::time_point t0 = Clock::now();
        #pragma omp parallel num_threads(threads)
        {
            alignas(64) int16_t acc[kLen];
            alignas(64) int16_t src[kLen];
            for (size_t i = 0; i < kLen; ++i) {
                acc[i] = 0;
                src[i] = int16_t(i & 7);
            }
            for (size_t r = 0; r < kReps; ++r) {
                for (size_t i = 0; i < kLen; ++i)
                    acc[i] = int16_t(acc[i] + src[i]);
                asm volatile("" : : "r"(acc), "r"(src) : "memory");
            }
        }
        double s = msBetween(t0, Clock::now()) * 1e-3;
        best = std::max(best, double(threads) * kLen * kReps / s * 1e-9);
    }
    return best;
}

/** Best of three STREAM-triad passes over arrays four times the last-
    level cache (64 to 512 MB in all), in GB/s (bytes computed: 24 per
    element). */
double
triad(int threads)
{
    size_t bytes = std::clamp<size_t>(4 * llcBytes(), 64u << 20, 512u << 20);
    size_t n = bytes / (3 * sizeof(double));
    std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
        c(new double[n]);
    #pragma omp parallel for num_threads(threads) schedule(static)
    for (long i = 0; i < long(n); ++i) {
        a[size_t(i)] = 0.0;
        b[size_t(i)] = 1.0;
        c[size_t(i)] = 2.0;
    }
    double best = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
        Clock::time_point t0 = Clock::now();
        #pragma omp parallel for num_threads(threads) schedule(static)
        for (long i = 0; i < long(n); ++i)
            a[size_t(i)] = b[size_t(i)] + 3.0 * c[size_t(i)];
        double s = msBetween(t0, Clock::now()) * 1e-3;
        best = std::max(best, 24.0 * double(n) / s * 1e-9);
    }
    if (a[n / 2] != 7.0)
        std::abort();
    return best;
}

} // namespace

Calib
calibrate(int threads)
{
    Span s("calib");
    return {int16Adds(threads), triad(threads)};
}

} // namespace pb
