#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <sched.h>
#include <cstring>
#include <unordered_map>

namespace pb {

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest sample with at least p% of the
    // samples at or below it.
    double rank = std::ceil(p / 100.0 * double(v.size()) - 1e-9);
    size_t i = rank < 1.0 ? 0 : size_t(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double
tailPercentile(size_t n)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        // Samples strictly beyond the nearest-rank index.
        size_t at = size_t(std::ceil(p / 100.0 * double(n) - 1e-9));
        if (n >= at && n - at >= 10)
            return p;
    }
    return 0.0;
}

size_t
minSamples(double p)
{
    size_t n = 1;
    while (tailPercentile(n) < p)
        ++n;
    return n;
}

double
chunkedPercentile(const std::vector<double>& inOrder, double p)
{
    const size_t n = inOrder.size();
    const size_t k = std::clamp<size_t>(n / minSamples(p), 1, 40);
    std::vector<double> per;
    for (size_t i = 0; i < k; ++i)
        per.push_back(percentile(
            std::vector<double>(inOrder.begin() + long(i * n / k),
                                inOrder.begin() + long((i + 1) * n / k)),
            p));
    return percentile(per, kCalmPct);
}

double
maxSustainableRate(std::vector<Rung> rungs, double limitMs)
{
    std::sort(rungs.begin(), rungs.end(),
              [](const Rung& a, const Rung& b) { return a.rate < b.rate; });
    auto passes = [&](const Rung& r) {
        return !r.backlog && r.p99Ms <= limitMs;
    };
    for (size_t i = 0; i < rungs.size(); ++i) {
        if (passes(rungs[i]))
            continue;
        if (i == 0)
            return 0.0;
        const Rung& a = rungs[i - 1];
        const Rung& b = rungs[i];
        // A failing rung whose p99 still meets the limit failed on a
        // backlog, and an infinite p99 leaves no room to interpolate.
        if (b.p99Ms <= a.p99Ms || b.p99Ms <= limitMs ||
            !std::isfinite(b.p99Ms))
            return a.rate;
        double f = (std::log(limitMs) - std::log(std::max(a.p99Ms, 1e-9))) /
                   (std::log(b.p99Ms) - std::log(std::max(a.p99Ms, 1e-9)));
        return a.rate + (b.rate - a.rate) * std::clamp(f, 0.0, 1.0);
    }
    return rungs.empty() ? 0.0 : rungs.back().rate;
}

// ---------------------------------------------------------------- tracer

Tracer&
Tracer::get()
{
    static Tracer t;
    return t;
}

uint32_t&
Tracer::current()
{
    thread_local uint32_t cur = 0;
    return cur;
}

void
Tracer::record(const Rec& r)
{
    thread_local std::vector<Rec>* buf = nullptr;
    if (!buf) {
        buf = new std::vector<Rec>(); // owned by buffers_, never freed
        buf->reserve(1 << 16);
        std::lock_guard<std::mutex> lk(mu_);
        buffers_.push_back(buf);
    }
    buf->push_back(r);
}

std::vector<Tracer::Rec>
Tracer::collect()
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Rec> all;
    for (auto* b : buffers_)
        all.insert(all.end(), b->begin(), b->end());
    return all;
}

std::map<std::string, SelfTime>
selfTimes(const std::vector<Tracer::Rec>& spans)
{
    std::unordered_map<uint32_t, size_t> byId;
    for (size_t i = 0; i < spans.size(); ++i)
        byId[spans[i].id] = i;
    // Covered time of each span by its direct children, clipped to
    // the parent's interval (children of one parent run one after
    // another).
    std::vector<uint64_t> covered(spans.size(), 0);
    for (const Tracer::Rec& s : spans) {
        auto it = byId.find(s.parent);
        if (s.parent == 0 || it == byId.end())
            continue;
        const Tracer::Rec& p = spans[it->second];
        uint64_t lo = std::max(s.start, p.start);
        uint64_t hi = std::min(s.end, p.end);
        if (hi > lo)
            covered[it->second] += hi - lo;
    }
    std::map<std::string, SelfTime> out;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Tracer::Rec& s = spans[i];
        uint64_t dur = s.end > s.start ? s.end - s.start : 0;
        SelfTime& t = out[s.name];
        ++t.calls;
        t.totalMs += double(dur) * 1e-6;
        t.selfMs += double(dur - std::min(dur, covered[i])) * 1e-6;
    }
    return out;
}

// --------------------------------------------------------- box and threads

namespace {

/** CPUs the process may use, as found at first call. */
const std::vector<int>&
allowedCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> v;
        cpu_set_t set;
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    v.push_back(c);
        if (v.empty())
            v.push_back(0);
        return v;
    }();
    return cpus;
}

} // namespace

void
pinSelf(CpuSet which)
{
    const std::vector<int>& cpus = allowedCpus();
    const size_t team = size_t(threadBudget().workerTeam);
    if (cpus.size() <= team)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (size_t i = 0; i < cpus.size(); ++i)
        if (which == CpuSet::ToAll ||
            (which == CpuSet::Worker) == (i >= cpus.size() - team))
            CPU_SET(cpus[i], &set);
    sched_setaffinity(0, sizeof set, &set);
}

ThreadBudget
threadBudget()
{
    ThreadBudget b;
    b.cores = int(allowedCpus().size());
    // Two benchmark threads (generator + collector, or two clients)
    // beside the worker team, never more than the box has.
    b.workerTeam = std::clamp(b.cores - 2, 1, 2);
    b.mainTeam = std::min(2, b.cores);
    return b;
}

std::string
boxFingerprint()
{
    char brand[49] = {};
    unsigned regs[12] = {};
    bool ok = true;
    for (unsigned i = 0; i < 3 && ok; ++i)
        ok = __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]) != 0;
    if (ok)
        std::memcpy(brand, regs, 48);
    std::string model = ok ? brand : "unknown";
    while (!model.empty() && model.front() == ' ')
        model.erase(model.begin());

    std::string isa;
    __builtin_cpu_init();
#define PB_ISA(f)                                                         \
    if (__builtin_cpu_supports(f))                                        \
        isa += std::string(isa.empty() ? "" : ",") + f;
    PB_ISA("sse4.2")
    PB_ISA("avx")
    PB_ISA("avx2")
    PB_ISA("fma")
    PB_ISA("avx512f")
    PB_ISA("avx512bw")
    PB_ISA("avx512vl")
    PB_ISA("avx512vnni")
#undef PB_ISA
    return "cores=" + std::to_string(threadBudget().cores) + " isa=" + isa +
           " cpu=\"" + model + "\"";
}

} // namespace pb
