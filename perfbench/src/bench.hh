/**
 * @file
 * Shared pieces of the repository benchmark: clocks, the percentile
 * and rate-ladder rules, the metric/outcome record every workload
 * fills, the in-memory span tracer, and the thread budget.
 *
 * Everything here is benchmark-side: the program under test is
 * driven only through its public entry points, and each layer is
 * timed from outside by timing the calls into it.
 */
#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

inline uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now().time_since_epoch())
                        .count());
}

// ------------------------------------------------------------ statistics

/** Nearest-rank percentile of @p v (any order); 0 when empty. */
double percentile(std::vector<double> v, double p);

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/**
 * The highest of the benchmark's reporting percentiles (99.9, 99,
 * 95, 90, 75, 50) that has at least ten samples beyond it among
 * @p n samples; 0 when even the median lacks ten samples beyond it.
 */
double tailPercentile(size_t n);

/** Fewest samples that leave ten beyond percentile @p p. */
size_t minSamples(double p);

/**
 * Percentile of a run's stretches that the calm-stretch estimates
 * report: this one of per-stretch latencies, 100 minus it of
 * per-stretch rates. Other tenants' load only adds time and, on a
 * shared 4-CPU VM, covered most of some 20 s runs; the calmest tenth
 * of a run is what stays put from run to run.
 */
constexpr double kCalmPct = 10.0;

/**
 * Percentile @p p of @p inOrder (samples in arrival order), taken in
 * the run's calm stretches: split the samples into as many
 * consecutive chunks (at most 40) as hold minSamples(p) apiece, take
 * the percentile of each, and report the kCalmPct-th percentile
 * (nearest rank) of those. Load from other tenants of the box only
 * ever adds latency, and it comes in stretches of seconds; on a shared
 * 4-CPU VM the chunk medians of one run spanned 26-41 ms. One chunk =
 * the plain percentile.
 */
double chunkedPercentile(const std::vector<double>& inOrder, double p);

/** One rung of the open-loop rate ladder. */
struct Rung
{
    double rate = 0.0;     //!< offered requests/s
    double p99Ms = 0.0;    //!< p99 from due time, misses as infinite
    bool backlog = false;  //!< queue still growing at the end
};

/**
 * Highest sustainable rate of a ladder: walk the rungs in
 * ascending rate; a rung passes when its p99 (a shed, failed or wrong
 * request counts as an infinite latency) meets @p limitMs and its
 * backlog is not growing. The result interpolates, in log p99,
 * between the last passing rung and the first failing one, so it
 * moves continuously with the program's speed instead of snapping to
 * rung rates. 0 when the lowest rung already fails; the top rung's
 * rate when every rung passes.
 */
double maxSustainableRate(std::vector<Rung> rungs, double limitMs);

/** Runs the benchmark's self-test; returns the number of failures. */
int selfTest();

// -------------------------------------------------------------- results

/** Metrics plus the outcome counters of one benchmark run. */
struct Report
{
    struct Metric
    {
        double value = 0.0;
        std::string unit;
    };
    std::map<std::string, Metric> metrics;
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<std::string> problems; //!< failed output checks

    void set(const std::string& name, double value, const char* unit)
    {
        metrics[name] = {value, unit};
    }
    /** Count @p n attempts of which @p bad failed. */
    void count(size_t n, size_t bad)
    {
        attempted += n;
        failed += bad;
    }
    void problem(const std::string& what) { problems.push_back(what); }
};

// -------------------------------------------------------------- tracing

/**
 * In-memory span recorder. Each span has a name, start, end, parent
 * span and request id; spans of one request share the id. Off by
 * default: a disabled Span costs one relaxed load. Spans are kept
 * per thread and written out once, when the run ends.
 */
class Tracer
{
  public:
    struct Rec
    {
        const char* name;
        uint64_t start, end;
        uint32_t id, parent;
        uint64_t req;
    };

    static Tracer& get();

    bool on() const { return on_.load(std::memory_order_relaxed); }
    void enable(bool v) { on_.store(v, std::memory_order_relaxed); }

    uint32_t newId() { return next_.fetch_add(1) + 1; }

    /** Record a finished span (any thread). */
    void record(const Rec& r);

    /** Innermost open Span on this thread (0 at top level). */
    static uint32_t& current();

    /** All spans recorded so far, merged across threads. */
    std::vector<Rec> collect();

  private:
    std::atomic<bool> on_{false};
    std::atomic<uint32_t> next_{0};
    std::mutex mu_;
    std::vector<std::vector<Rec>*> buffers_;
};

/** RAII span around a call into a layer. */
class Span
{
  public:
    explicit Span(const char* name, uint64_t req = 0)
    {
        Tracer& t = Tracer::get();
        if (!t.on())
            return;
        name_ = name;
        req_ = req;
        id_ = t.newId();
        parent_ = Tracer::current();
        Tracer::current() = id_;
        start_ = nowNs();
    }
    ~Span()
    {
        if (!name_)
            return;
        uint64_t end = nowNs();
        Tracer::current() = parent_;
        Tracer::get().record({name_, start_, end, id_, parent_, req_});
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    const char* name_ = nullptr;
    uint64_t start_ = 0, req_ = 0;
    uint32_t id_ = 0, parent_ = 0;
};

/** Per-name totals of a span list: calls, total and self time. */
struct SelfTime
{
    size_t calls = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
};
std::map<std::string, SelfTime> selfTimes(
    const std::vector<Tracer::Rec>& spans);

// -------------------------------------------------------- thread budget

/**
 * Threads of one run: the serving worker's OpenMP team plus the
 * benchmark's own threads (one open-loop load thread, or two closed-
 * loop clients) never exceed the CPUs the process may use.
 */
struct ThreadBudget
{
    int cores = 1;      //!< CPUs in the process's affinity mask
    int workerTeam = 1; //!< ServeOptions::ompThreads of the worker
    int mainTeam = 1;   //!< omp_set_num_threads of the main thread
};
ThreadBudget threadBudget();

/**
 * CPU partition of a run: pin the calling thread to the compute CPUs
 * (the last workerTeam allowed CPUs) or to the load CPUs (the rest);
 * ToAll restores every allowed CPU. The server's worker thread and its
 * OpenMP helpers inherit the mask of the thread that creates them, so
 * a server built while pinned to Worker keeps its team off the load
 * threads' CPUs. Left to the scheduler, the LstmLm server's p50 flipped
 * between 27 and 40 ms from run to run; pinned to the first two CPUs
 * of a 4-CPU VM it held 41 ms, to the last two 26 ms (the low CPUs
 * take most interrupts). No-op when the box has too few CPUs to split.
 */
enum class CpuSet { Worker, Load, ToAll };
void pinSelf(CpuSet set);

/** Box fingerprint: cores, ISA flags, CPU model. */
std::string boxFingerprint();

} // namespace pb

#endif // PERFBENCH_BENCH_HH
