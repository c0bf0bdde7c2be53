/**
 * @file
 * Repository benchmark program.
 *
 *   mixq_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *   mixq_perfbench --self-test
 *
 * Workloads: serve_cnn_low, serve_cnn_rate (open loop, Poisson
 * arrivals into the planned MiniResNet server), serve_lstm_closed
 * (two closed-loop clients of the planned LstmLm server) and
 * msq_train_deploy (MSQ QAT, deploy artifact round trip, FPGA
 * simulation). With --trace 0 the last stdout line holds the end-to-
 * end metrics; with --trace 1 it holds the per-layer ledger, measured
 * with spans recorded around every layer call.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench.hh"
#include "models.hh"
#include "workloads.hh"

using namespace pb;

namespace {

struct Opts
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
};

/** Values the per-layer ledger derives from the load phases. */
struct PhaseFacts
{
    double p50Ms = 0.0, meanBatch = 0.0, batches = 0.0, wallS = 0.0;
};

/** What the traced run carries between workloads. */
struct LayerCtx
{
    Report* rep = nullptr;
    PhaseFacts low, high;
    std::vector<double> lateMs;
};

double
itemsPerBatch(const PhaseResult& r)
{
    return r.batches ? double(r.batchItems) / double(r.batches) : 0.0;
}

/** Off in the traced run, whose shortened phases feed only the
    per-layer metrics. */
bool gStrictTail = true;

/**
 * Latency pair of a phase: the median and the p90 tail, each taken in
 * the phase's calm stretches (chunkedPercentile). p90 rather than p99:
 * on a box shared with other tenants the p99 follows the neighbours'
 * load (its quartile spread reached 60% across runs of identical
 * code), too far for any bound. The plain percentiles and the highest
 * percentile the sample supports are printed beside them. Flags a
 * sample with fewer than ten beyond p90.
 */
void
setLatency(Report& rep, const std::vector<double>& latMs, const char* what)
{
    const double tail = 90.0;
    if (gStrictTail && tailPercentile(latMs.size()) < tail)
        rep.problem(std::string(what) + ": " +
                    std::to_string(latMs.size()) +
                    " samples cannot support the tail percentile");
    rep.set("lat_p50_ms", chunkedPercentile(latMs, 50.0), "ms");
    rep.set("lat_tail_ms", chunkedPercentile(latMs, tail), "ms");
    const double top = tailPercentile(latMs.size());
    std::printf("# %s: %zu latency samples, p50 %.4g ms, p90 %.4g ms, "
                "highest supported p%g %.4g ms\n",
                what, latMs.size(), percentile(latMs, 50.0),
                percentile(latMs, tail), top, percentile(latMs, top));
}

/** Wrong, failed or expired responses are errors in every phase. */
size_t
errors(const PhaseResult& r)
{
    return r.wrong + r.failed + r.expired;
}

Rig
setupRig(bool lstm, uint64_t seed, int reps, Report& rep)
{
    std::vector<double> s;
    Rig rig;
    for (int i = 0; i < reps; ++i) {
        rig = Rig{}; // the previous server stops before the next set-up
        rig = makeRig(lstm, seed);
        s.push_back(rig.setupS);
    }
    rep.set("setup_s", median(s), "s");
    return rig;
}

void
serveCnnLow(const Opts& o, int setupReps, Report& rep, LayerCtx* lc)
{
    Rig rig = setupRig(false, o.seed, setupReps, rep);
    PhaseResult r = openLoop(rig, kLowRate, o.seconds, o.seed);
    setLatency(rep, r.latMs, "serve_cnn_low");
    rep.set("rate_per_s", double(r.ok) / r.wallS, "1/s");
    rep.count(r.sent, r.misses());
    if (lc) {
        lc->rep->set("serve.items_per_batch.low", itemsPerBatch(r), "count");
        lc->low = {percentile(r.latMs, 50.0), itemsPerBatch(r),
                   double(r.batches), r.wallS};
        lc->lateMs.insert(lc->lateMs.end(), r.lateMs.begin(), r.lateMs.end());
    }
}

void
serveCnnRate(const Opts& o, int setupReps, Report& rep, LayerCtx* lc)
{
    Rig rig = setupRig(false, o.seed, setupReps, rep);
    // The p99-limited ladder runs in the traced run only: on a shared
    // box its rung p99s swing with outside load, too far for a bound.
    RateResult rr = rateWorkload(rig, o.seconds, o.seed, lc != nullptr);
    setLatency(rep, rr.high.latMs, "serve_cnn_rate high");
    // Correct responses/s of the high phase: it falls short of the
    // offered rate once capacity does. Capacity itself (the over rung's
    // goodput, where Shed keeps the queue bounded) is a per-layer
    // figure: on a 4-CPU VM it flipped between ~7.6k and ~11k items/s
    // minutes apart, with 1- and 2-thread worker teams alike, a
    // quartile spread of 0.27-0.29 over ten seeds in three of five
    // sets, past any bound the benchmark may set.
    const double goodput = rr.goodput;
    rep.set("rate_per_s", double(rr.high.ok) / rr.high.wallS, "1/s");
    // Shedding is by design on the ladder's upper rungs and at the over
    // rung; only the high phase counts it as an error.
    rep.count(rr.high.sent, rr.high.misses());
    for (const PhaseResult& r : rr.rungs) {
        rep.count(r.sent, errors(r));
        std::printf("# rung %.0f req/s: p99 %.3f ms, misses %zu, backlog %d\n",
                    r.offered, chunkedPercentile(r.seqMs, 99.0), r.misses(),
                    int(r.backlog));
    }
    std::printf("# over rung %.0f req/s: goodput %.1f req/s, shed %zu of %zu\n",
                rr.over.offered, goodput, rr.over.shed, rr.over.sent);
    if (rr.over.wrong)
        rep.problem("wrong responses at the over rung");
    if (lc) {
        Report& l = *lc->rep;
        const PhaseResult& h = rr.high;
        l.set("serve.items_per_batch.high", itemsPerBatch(h), "count");
        l.set("serve.submit_us.p99", percentile(h.submitUs, 99.0), "us");
        l.set("serve.queue_peak_items", double(rr.over.queuePeak), "count");
        l.set("serve.shed_share.over",
              double(rr.over.shed) / double(std::max<size_t>(rr.over.sent, 1)),
              "ratio");
        l.set("serve.goodput_rps.over", goodput, "1/s");
        l.set("serve.max_rate_rps", rr.maxRate, "1/s");
        std::printf("# max sustainable rate %.1f req/s (p99 <= %.1f ms)\n",
                    rr.maxRate, kP99LimitMs);
        mixq::BatchServer::Stats st = rig.srv->stats();
        l.set("serve.expired", double(st.expired), "count");
        l.set("serve.failed", double(st.failed), "count");
        lc->high = {percentile(h.latMs, 50.0), itemsPerBatch(h),
                    double(h.batches), h.wallS};
        lc->lateMs.insert(lc->lateMs.end(), h.lateMs.begin(), h.lateMs.end());
    }
}

void
serveLstmClosed(const Opts& o, int setupReps, Report& rep, LayerCtx* lc)
{
    Rig rig = setupRig(true, o.seed, setupReps, rep);
    PhaseResult r = closedLoop(rig, 2, o.seconds, o.seed);
    setLatency(rep, r.latMs, "serve_lstm_closed");
    // Tokens/s in the calm stretches (kCalmPct).
    rep.set("rate_per_s",
            percentile(r.itemRate, 100.0 - kCalmPct) * double(kLmSteps),
            "1/s");
    rep.count(r.sent, r.misses());
    if (lc)
        lc->rep->set("serve.items_per_batch.lstm", itemsPerBatch(r), "count");
}

void
msqTrainDeploy(const Opts& o, int setupReps, Report& rep, LayerCtx* lc)
{
    // Train on the compute CPUs; an OpenMP team first formed here
    // inherits the mask.
    pinSelf(CpuSet::Worker);
    if (!trainLoopMatchesTrainer())
        rep.problem("phase-timed training loop differs from "
                    "trainClassifier");
    TrainResult tr = msqJobs(o.seconds, o.seed, size_t(setupReps));
    rep.set("setup_s", median(tr.setupS), "s");
    setLatency(rep, tr.stepMs, "msq_train_deploy steps");
    rep.set("rate_per_s", percentile(tr.imgPerS, 100.0 - kCalmPct),
            "1/s"); // calm jobs
    rep.count(tr.jobs, tr.badJobs);
    for (const std::string& p : tr.problems)
        rep.problem(p);
    std::printf("# %zu jobs, %zu QAT steps, sim cycles %llu\n", tr.jobs,
                tr.steps, (unsigned long long)tr.simCycles);
    pinSelf(CpuSet::ToAll);
    if (lc) {
        Report& l = *lc->rep;
        l.set("nn.train.forward_ms", median(tr.fwdMs), "ms");
        l.set("nn.train.backward_ms", median(tr.bwdMs), "ms");
        l.set("nn.loss_ms", median(tr.lossMs), "ms");
        l.set("nn.optim.step_ms", median(tr.optimMs), "ms");
        l.set("quant.penalty_ms", median(tr.penaltyMs), "ms");
        l.set("quant.epoch_update_ms", median(tr.epochUpdateMs), "ms");
        l.set("quant.finalize_ms", median(tr.finalizeMs), "ms");
        l.set("serial.save_ms", median(tr.saveMs), "ms");
        l.set("serial.load_ms", median(tr.loadMs), "ms");
        l.set("serial.artifact_bytes", tr.artifactBytes, "bytes");
        l.set("sim.simulate_ms", median(tr.simMs), "ms");
        l.set("sim.cycles", double(tr.simCycles), "count");
    }
}

using WorkloadFn = std::function<void(const Opts&, int, Report&, LayerCtx*)>;

const std::vector<std::pair<std::string, WorkloadFn>>&
workloads()
{
    static const std::vector<std::pair<std::string, WorkloadFn>> w = {
        {"serve_cnn_low", serveCnnLow},
        {"serve_cnn_rate", serveCnnRate},
        {"serve_lstm_closed", serveLstmClosed},
        {"msq_train_deploy", msqTrainDeploy},
    };
    return w;
}

/** Executor µs at @p n items, interpolated between measured sizes. */
double
runUsAt(const Report& rep, const char* tag, double n)
{
    double xs[] = {1, 2, 4, 8};
    auto at = [&](int i) {
        return rep.metrics.at(std::string("executor.run_us.") + tag + ".n" +
                              std::to_string(int(xs[i])))
            .value;
    };
    n = std::clamp(n, 1.0, 8.0);
    for (int i = 0; i < 3; ++i)
        if (n <= xs[i + 1])
            return at(i) + (at(i + 1) - at(i)) * (n - xs[i]) / (xs[i + 1] - xs[i]);
    return at(3);
}

/** Merge a phase report's outcome counters into the run's report. */
void
absorb(Report& into, const Report& from)
{
    into.count(from.attempted, from.failed);
    for (const std::string& p : from.problems)
        into.problem(p);
}

/**
 * The traced run: the requested workload untraced and then traced for
 * trace_overhead_share, every other workload traced for its layers,
 * then the executor / leaf-layer / kernel ledger. Spans are written
 * to .bench_build/perfbench-traces/ when the run ends.
 */
void
traceRun(const Opts& o, const WorkloadFn& own, Report& rep)
{
    gStrictTail = false;
    Opts phase = o;
    phase.seconds = std::max(2.0, o.seconds / 2.0);
    Report untraced;
    own(phase, 1, untraced, nullptr);
    absorb(rep, untraced);

    Tracer::get().enable(true);
    LayerCtx lc;
    lc.rep = &rep;
    double tracedP50 = 0.0;
    for (const auto& [name, fn] : workloads()) {
        Report r;
        fn(phase, name == "msq_train_deploy" ? 2 : 1, r, &lc);
        absorb(rep, r);
        if (name == o.workload)
            tracedP50 = r.metrics.at("lat_p50_ms").value;
    }
    rep.set("trace_overhead_share",
            tracedP50 / untraced.metrics.at("lat_p50_ms").value - 1.0,
            "ratio");

    Calib calib = calibrate(threadBudget().mainTeam);
    rep.set("calib.int16_add_gops", calib.int16AddGops, "Gop/s");
    rep.set("calib.stream_gbps", calib.streamGbps, "GB/s");
    std::string rows;
    layerLedger(calib, rep, rows);
    std::fputs(rows.c_str(), stdout);
    Tracer::get().enable(false);

    // Derived: the fill wait is the latency p50 beyond the forward of
    // the mean batch; busy share is forwards' time over the phase.
    for (auto [tag, f] : {std::pair{"low", lc.low}, std::pair{"high", lc.high}}) {
        double runMs = runUsAt(rep, "cnn", f.meanBatch) * 1e-3;
        rep.set(std::string("serve.wait_ms.") + tag, f.p50Ms - runMs, "ms");
        rep.set(std::string("serve.worker_busy_share.") + tag,
                f.batches * runMs * 1e-3 / f.wallS, "ratio");
    }
    rep.set("load.late_ms.p99", percentile(lc.lateMs, 99.0), "ms");
    rep.set("load.late_ms.max", percentile(lc.lateMs, 100.0), "ms");

    std::vector<Tracer::Rec> spans = Tracer::get().collect();
    for (const auto& [name, t] : selfTimes(spans))
        std::printf("# self %-26s calls %8zu total %10.2f ms self %10.2f ms\n",
                    name.c_str(), t.calls, t.totalMs, t.selfMs);
    std::filesystem::path dir = ".bench_build/perfbench-traces";
    std::filesystem::create_directories(dir);
    std::ofstream f(dir / (o.workload + "-seed" + std::to_string(o.seed) +
                           ".csv"));
    f << "name,start_ns,end_ns,id,parent,request\n";
    for (const Tracer::Rec& s : spans)
        f << s.name << ',' << s.start << ',' << s.end << ',' << s.id << ','
          << s.parent << ',' << s.req << '\n';
}

void
printResult(const Report& rep)
{
    bool correct = rep.problems.empty();
    std::string m;
    for (const auto& [name, v] : rep.metrics) {
        double x = v.value;
        if (!std::isfinite(x)) {
            correct = false;
            std::fprintf(stderr, "non-finite metric %s\n", name.c_str());
            x = -1.0;
        }
        char b[256];
        std::snprintf(b, sizeof b, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      m.empty() ? "" : ", ", name.c_str(), x, v.unit.c_str());
        m += b;
    }
    for (const std::string& p : rep.problems)
        std::fprintf(stderr, "check failed: %s\n", p.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", rep.attempted, rep.failed,
                m.c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: mixq_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> | --self-test\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    Opts o;
    bool haveW = false, haveSeed = false, haveS = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--self-test")
            return selfTest() == 0 ? 0 : 1;
        if (i + 1 >= argc)
            return usage();
        std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
            haveW = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
            haveSeed = true;
        } else if (a == "--seconds") {
            o.seconds = std::atof(v.c_str());
            haveS = o.seconds > 0.0;
        } else if (a == "--trace") {
            o.trace = v == "1";
        } else {
            return usage();
        }
    }
    if (!haveW || !haveSeed || !haveS)
        return usage();
    WorkloadFn fn;
    for (const auto& [name, f] : workloads())
        if (name == o.workload)
            fn = f;
    if (!fn) {
        std::fprintf(stderr, "unknown workload %s\n", o.workload.c_str());
        return 2;
    }

    ThreadBudget tb = threadBudget();
#ifdef _OPENMP
    omp_set_num_threads(tb.mainTeam);
#endif
    std::printf("# box: %s\n", boxFingerprint().c_str());
    std::printf("# threads: worker team %d + 1 load thread (open loop) or "
                "2 clients (closed loop); training team %d\n",
                tb.workerTeam, tb.mainTeam);

    Report rep;
    if (o.trace)
        traceRun(o, fn, rep);
    else
        fn(o, o.workload == "serve_lstm_closed" ? 3 : 9, rep, nullptr);
    printResult(rep);
    return 0;
}
