#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <unistd.h>

#include "compiler/runner.hh"
#include "data/synth_images.hh"
#include "fpga/design_point.hh"
#include "infer/session.hh"
#include "models.hh"
#include "nn/loss.hh"
#include "nn/optim.hh"
#include "nn/trainer.hh"
#include "serial/deploy.hh"
#include "serve/planner.hh"
#include "util/rng.hh"
#include "workloads.hh"

using namespace mixq;

namespace pb {

namespace {

/** Job shape: MiniResNet on synth-easy, MSQ (Mixed, Algorithm 2). */
constexpr size_t kImages = 512, kBatch = 32, kProbe = 16;
constexpr int kEpochs = 3;
constexpr uint64_t kModelSeed = 21;

/** Where a job writes its deploy artifact: inside the checkout, one
    file per process. */
std::string
artifactPath()
{
    std::filesystem::path dir = ".bench_build/perfbench-tmp";
    std::filesystem::create_directories(dir);
    return (dir / ("msq_deploy." + std::to_string(getpid()) + ".bin"))
        .string();
}

TrainCfg
trainCfg(int epochs)
{
    TrainCfg c;
    c.epochs = epochs;
    c.batch = kBatch;
    c.lr = 0.05;
    c.seed = 5;
    return c;
}

/** Phase-timed mirror of trainClassifier's loop, built from the same
    public calls; trainLoopMatchesTrainer() pins it bit for bit. */
std::vector<double>
trainLoop(Module& model, const LabeledImages& data, const TrainCfg& cfg,
          QatContext& qat, Sgd& sgd, TrainResult* tr)
{
    model.setActQuant(qat.config().quantizeActivations
                          ? qat.config().actBits : 8,
                      qat.config().quantizeActivations);
    Rng rng(cfg.seed);
    std::vector<size_t> order(data.size());
    std::iota(order.begin(), order.end(), 0);
    const size_t item = data.images.size() / data.size();
    std::vector<double> epochLoss;
    auto lap = [](Clock::time_point& t, std::vector<double>* out) {
        Clock::time_point now = Clock::now();
        if (out)
            out->push_back(msBetween(t, now));
        t = now;
    };
    for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
        sgd.setLr(cfg.cosine ? cosineLr(cfg.lr, epoch, cfg.epochs)
                             : stepLr(cfg.lr, epoch, cfg.stepEvery));
        {
            Span s("quant.epoch_update");
            Clock::time_point t = Clock::now();
            qat.epochUpdate();
            lap(t, tr ? &tr->epochUpdateMs : nullptr);
        }
        rng.shuffle(order);
        double lossSum = 0.0;
        size_t batches = 0;
        for (size_t b0 = 0; b0 < data.size(); b0 += cfg.batch) {
            size_t b1 = std::min(b0 + cfg.batch, data.size());
            std::vector<size_t> shape = data.images.shape();
            shape[0] = b1 - b0;
            Tensor x(shape);
            std::vector<int> y(b1 - b0);
            for (size_t i = b0; i < b1; ++i) {
                std::memcpy(x.data() + (i - b0) * item,
                            data.images.data() + order[i] * item,
                            item * sizeof(float));
                y[i - b0] = data.labels[order[i]];
            }
            Span step("nn.train.step");
            Clock::time_point t0 = Clock::now(), t = t0;
            sgd.zeroGrad();
            Tensor logits;
            {
                Span s("nn.train.forward");
                logits = model.forward(x, true);
            }
            lap(t, tr ? &tr->fwdMs : nullptr);
            Tensor dlogits;
            double loss;
            {
                Span s("nn.loss");
                loss = softmaxCrossEntropy(logits, y, dlogits);
            }
            lap(t, tr ? &tr->lossMs : nullptr);
            {
                Span s("nn.train.backward");
                model.backward(dlogits);
            }
            lap(t, tr ? &tr->bwdMs : nullptr);
            {
                Span s("quant.penalty");
                loss += qat.addPenaltyGradsAndPenalty();
            }
            lap(t, tr ? &tr->penaltyMs : nullptr);
            {
                Span s("nn.optim.step");
                sgd.step();
            }
            lap(t, tr ? &tr->optimMs : nullptr);
            if (tr)
                tr->stepMs.push_back(msBetween(t0, t));
            lossSum += loss;
            ++batches;
        }
        epochLoss.push_back(lossSum / double(std::max<size_t>(batches, 1)));
    }
    return epochLoss;
}

} // namespace

bool
trainLoopMatchesTrainer()
{
    LabeledImages data = makeImageDataset(ImageTask::Easy, 128, 3);
    TrainCfg cfg = trainCfg(2);
    std::vector<std::vector<float>> weights[2];
    for (int side = 0; side < 2; ++side) {
        Rng rng(kModelSeed);
        auto model = makeMiniResNet(data.numClasses, rng, 8);
        QatContext qat{QConfig{}};
        qat.attach(model->params());
        if (side == 0) {
            trainClassifier(*model, data, cfg, &qat);
        } else {
            Sgd sgd(model->params(), cfg.lr, cfg.momentum,
                    cfg.weightDecay);
            trainLoop(*model, data, cfg, qat, sgd, nullptr);
            qat.finalize();
        }
        for (Param* p : model->params())
            weights[side].emplace_back(p->w.span().begin(),
                                       p->w.span().end());
    }
    return weights[0] == weights[1];
}

TrainResult
msqJobs(double seconds, uint64_t seed, size_t minJobs)
{
    TrainResult res;
    const std::string path = artifactPath();
    const DesignPoint& dp = designPointByName("D1-2");
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (size_t job = 0; job < minJobs || Clock::now() < end; ++job) {
        Span js("msq.job", job);
        // Set-up: data, model, QAT attach, optimizer.
        Clock::time_point t0 = Clock::now();
        LabeledImages data =
            makeImageDataset(ImageTask::Easy, kImages, seed * 1000 + job);
        Rng rng(kModelSeed);
        auto model = makeMiniResNet(data.numClasses, rng, 8);
        QatContext qat{QConfig{}};
        qat.attach(model->params());
        TrainCfg cfg = trainCfg(kEpochs);
        Sgd sgd(model->params(), cfg.lr, cfg.momentum, cfg.weightDecay);
        Clock::time_point t1 = Clock::now();
        res.setupS.push_back(msBetween(t0, t1) * 1e-3);

        std::vector<double> loss =
            trainLoop(*model, data, cfg, qat, sgd, &res);
        Clock::time_point t2 = Clock::now();
        res.imgPerS.push_back(double(kImages) * kEpochs /
                              (msBetween(t1, t2) * 1e-3));
        res.steps += (kImages + kBatch - 1) / kBatch * kEpochs;
        bool bad = false;
        for (double l : loss)
            bad |= !std::isfinite(l);
        if (bad || !(loss.back() < loss.front())) {
            bad = true;
            res.problems.push_back("training loss not finite or not "
                                   "below its first epoch");
        }

        {
            Span s("quant.finalize");
            Clock::time_point t = Clock::now();
            qat.finalize();
            res.finalizeMs.push_back(msBetween(t, Clock::now()));
        }
        applyInferBackend(*model, InferBackend::Int, &qat);
        Tensor probe({kProbe, data.images.dim(1), data.images.dim(2),
                      data.images.dim(3)});
        std::memcpy(probe.data(), data.images.data(),
                    probe.size() * sizeof(float));
        Tensor want = model->forward(probe, false);

        {
            Span s("serial.save");
            Clock::time_point t = Clock::now();
            saveDeployArtifact(path, *model, qat);
            res.saveMs.push_back(msBetween(t, Clock::now()));
        }
        res.artifactBytes = double(std::filesystem::file_size(path));
        Rng other(kModelSeed + 1000);
        auto fresh = makeMiniResNet(data.numClasses, other, 8);
        size_t adopted = 0;
        mixq::LoadResult lr;
        {
            Span s("serial.load");
            Clock::time_point t = Clock::now();
            lr = tryLoadDeployArtifact(path, *fresh, adopted);
            res.loadMs.push_back(msBetween(t, Clock::now()));
        }
        if (!lr.ok() || !bitEqual(fresh->forward(probe, false), want)) {
            bad = true;
            res.problems.push_back("artifact-loaded model differs from "
                                   "the trained Int model: " + lr.message);
        }

        {
            Span s("sim.simulate");
            Clock::time_point t = Clock::now();
            ServePlan plan = planServeForward(*model, {1, 3, 12, 12});
            NetworkPerf perf = simulateNetwork(plan.net, dp);
            res.simMs.push_back(msBetween(t, Clock::now()));
            if (res.jobs > 0 && perf.cycles != res.simCycles) {
                bad = true;
                res.problems.push_back("sim.cycles differs between jobs");
            }
            res.simCycles = perf.cycles;
        }
        res.badJobs += bad ? 1 : 0;
        ++res.jobs;
    }
    std::filesystem::remove(path);
    return res;
}

} // namespace pb
