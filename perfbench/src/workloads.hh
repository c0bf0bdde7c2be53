/**
 * @file
 * Workloads: the served-model rigs with their open- and
 * closed-loop load phases, the MSQ train-and-deploy jobs, and the
 * per-layer ledger of the traced run.
 */
#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "nn/module.hh"
#include "serve/server.hh"

namespace pb {

// ------------------------------------------------------------- serving

/** Serving knobs shared by both servers: a 2 ms fill deadline (the
    low rate's batches of ~2 wait for it), and an admission bound deep
    enough that only the over rung sheds when outside load halves the
    box's capacity for a while. */
constexpr long kFillDeadlineUs = 2000;
constexpr size_t kQueueItems = 1024;

/** Windows a phase's settled-item rate is counted in (itemRate). */
constexpr size_t kRateWindows = 20;

/** A planned one-worker server over one Int-backend model, with the
    reference outputs of its request pool computed before it started. */
struct Rig
{
    std::unique_ptr<mixq::Module> model;
    std::vector<mixq::Tensor> pool; //!< distinct requests
    std::vector<mixq::Tensor> refs; //!< solo forward of each
    std::unique_ptr<mixq::BatchServer> srv;
    double setupS = 0.0; //!< model build + server build + warm-up
};

/** Build a rig; @p seed draws the request pool. */
Rig makeRig(bool lstm, uint64_t seed);

/** Outcome of one load phase. */
struct PhaseResult
{
    double offered = 0.0;    //!< requests/s offered (open loop)
    double wallS = 0.0;      //!< first due time to last settle
    size_t sent = 0, ok = 0, shed = 0, expired = 0, failed = 0,
           wrong = 0;
    size_t items = 0;        //!< items of correct responses
    std::vector<double> latMs;    //!< correct responses only
    std::vector<double> seqMs;    //!< every request in due order,
                                  //!< misses as infinite (open loop)
    std::vector<double> itemRate; //!< items/s in each of kRateWindows
                                  //!< of the phase
    std::vector<double> lateMs;   //!< generator lateness
    std::vector<double> submitUs; //!< time inside submit()
    size_t batches = 0, batchItems = 0; //!< server stats deltas
    size_t queuePeak = 0;
    bool backlog = false;

    size_t misses() const { return sent - ok; }
};

/** Poisson arrivals of single-item requests at @p rate for
    @p seconds, latency timed from each request's due time. */
PhaseResult openLoop(Rig& rig, double rate, double seconds, uint64_t seed);

/** @p clients closed-loop clients, each waiting for its reply. */
PhaseResult closedLoop(Rig& rig, int clients, double seconds,
                      uint64_t seed);

/**
 * Fixed open-loop rates of the CNN workloads (requests/s). The server
 * sustains 7000-12000 req/s on a 4-core AVX-512 VM, depending on the
 * other tenants' load: the high rate is about 30% of that, so it stays
 * below capacity when outside load halves the box; the ladder
 * brackets capacity; the over rung is past it even on a quiet box.
 */
constexpr double kLowRate = 500.0;
constexpr double kHighRate = 2500.0;
inline const std::vector<double> kLadder = {3000, 4000, 5000, 6000,
                                            7000, 8000, 9000, 10000};
constexpr double kOverRate = 18000.0;
/** p99 limit behind the highest sustainable rate: above the p99 the
    box's neighbours cause at light load (5-9 ms), well below the
    1024-item queue's wait at capacity (~100 ms). */
constexpr double kP99LimitMs = 15.0;

/** Per-phase results of the CNN rate workload. */
struct RateResult
{
    PhaseResult high, over;
    std::vector<PhaseResult> rungs;
    double goodput = 0.0; //!< correct responses/s at the over rung
                          //!< (calm windows, see kCalmPct)
    double maxRate = 0.0; //!< 0 without the ladder
};

/** The high rate, the rate ladder when @p ladder, and the over rung,
    in that order. */
RateResult rateWorkload(Rig& rig, double seconds, uint64_t seed,
                        bool ladder);

// ------------------------------------------------------------ training

/** Aggregates of the MSQ train-and-deploy jobs of one run. */
struct TrainResult
{
    size_t jobs = 0, steps = 0, badJobs = 0;
    std::vector<double> setupS, imgPerS, stepMs;
    // Per-batch / per-call phase times (ms), from the traced loop.
    std::vector<double> fwdMs, lossMs, bwdMs, penaltyMs, optimMs,
        epochUpdateMs, finalizeMs, saveMs, loadMs, simMs;
    double artifactBytes = 0.0;
    uint64_t simCycles = 0;
    std::vector<std::string> problems;
};

/** Run train-and-deploy jobs for @p seconds (at least @p minJobs). */
TrainResult msqJobs(double seconds, uint64_t seed, size_t minJobs);

/** trainClassifier vs the benchmark's phase-timed loop, bit for bit. */
bool trainLoopMatchesTrainer();

// -------------------------------------------------------------- ledger

/** Measured ceilings of the box. */
struct Calib
{
    double int16AddGops = 0.0;
    double streamGbps = 0.0;
};
Calib calibrate(int threads);

/** Executor, leaf-layer and kernel measurements into @p rep; ledger
    rows are printed to @p rowsOut. */
void layerLedger(const Calib& calib, Report& rep, std::string& rowsOut);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_HH
