// Per-layer ledger of the traced run: executor runs at the batch sizes
// serving runs, every plan step's public eval forward at its plan-
// buffer shape (keyed by step path and LayerSpec, beside its simulated
// FPGA cycles), and the integer kernels on the served panels.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "compiler/runner.hh"
#include "fpga/design_point.hh"
#include "infer/qkernels.hh"
#include "models.hh"
#include "nn/layers.hh"
#include "nn/rnn.hh"
#include "serve/executor.hh"
#include "serve/planner.hh"
#include "workloads.hh"

using namespace mixq;

namespace pb {

namespace {

/** Median µs of @p f over at least @p minReps calls and @p minMs. */
template <typename F>
double
timeUs(F&& f, int minReps = 9, double minMs = 20.0)
{
    f(); // warm
    std::vector<double> us;
    Clock::time_point start = Clock::now();
    while (int(us.size()) < minReps || msBetween(start, Clock::now()) < minMs) {
        Clock::time_point t = Clock::now();
        f();
        us.push_back(usBetween(t, Clock::now()));
        if (us.size() >= 2000)
            break;
    }
    return median(us);
}

/** Metric-name kind of a plan step's leaf module. */
const char*
kindOf(Module* m)
{
    if (dynamic_cast<Conv2d*>(m) || dynamic_cast<DwConv2d*>(m))
        return "conv";
    if (dynamic_cast<Linear*>(m))
        return "linear";
    if (dynamic_cast<BatchNorm2d*>(m))
        return "bn";
    if (dynamic_cast<ReLU*>(m))
        return "relu";
    if (dynamic_cast<MaxPool2d*>(m))
        return "pool";
    if (dynamic_cast<GlobalAvgPool*>(m))
        return "gap";
    if (dynamic_cast<Flatten*>(m))
        return "flatten";
    if (dynamic_cast<Embedding*>(m))
        return "embedding";
    if (dynamic_cast<Lstm*>(m))
        return "lstm";
    return "other";
}

/** Span name of a leaf call (string literals: spans keep pointers). */
const char*
spanOf(const char* kind)
{
    static const std::map<std::string, const char*> names = {
        {"conv", "nn.conv.forward"},       {"linear", "nn.linear.forward"},
        {"bn", "nn.bn.forward"},           {"relu", "nn.relu.forward"},
        {"pool", "nn.pool.forward"},       {"gap", "nn.gap.forward"},
        {"flatten", "nn.flatten.forward"}, {"embedding", "nn.embedding.forward"},
        {"lstm", "nn.lstm.forward"},       {"other", "nn.other.forward"}};
    return names.at(kind);
}

/** SP2 share of a leaf's packed int panel(s); -1 when it has none. */
double
sp2Share(Module* m)
{
    auto share = [](const PackedQMat& w) {
        return w.rows() ? double(w.numSp2()) / double(w.rows()) : -1.0;
    };
    if (auto* c = dynamic_cast<Conv2d*>(m))
        return share(c->packedQWeights());
    if (auto* l = dynamic_cast<Linear*>(m))
        return share(l->packedQWeights());
    if (auto* r = dynamic_cast<Lstm*>(m)) {
        const PackedQMat &x = r->packedQWx(), &h = r->packedQWh();
        return double(x.numSp2() + h.numSp2()) / double(x.rows() + h.rows());
    }
    return -1.0;
}

struct StepRow
{
    std::string path;
    const char* kind;
    double sp2 = -1.0;
    double us[2] = {0, 0};     //!< n = 1, 8
    double macs[2] = {0, 0};   //!< LayerSpec MACs (0: no GEMM)
    double bytes[2] = {0, 0};  //!< computed in + out activation bytes
    uint64_t cycles[2] = {0, 0};
    std::string spec;          //!< LayerSpec(s) at n = 1
};

/**
 * Replay @p m's plan at @p n items through each step's public eval
 * forward, timing each call. Returns false when the replayed output
 * is not bit-identical to the model's own forward.
 */
bool
replay(Module& m, const Tensor& x, size_t slot, std::vector<StepRow>& rows,
       const DesignPoint& dp)
{
    ServePlan plan = planServeForward(m, x.shape());
    NetworkPerf sim = simulateNetwork(plan.net, dp);
    std::map<std::string, std::pair<LayerSpec, uint64_t>> specs;
    for (const LayerSpec& ls : plan.net.layers)
        specs[ls.name] = {ls, 0};
    for (const LayerPerf& lp : sim.layers)
        if (specs.count(lp.name))
            specs[lp.name].second = lp.cycles;

    std::vector<Tensor> bufs(plan.buffers.size());
    bufs[0] = x;
    size_t r = 0;
    for (const PlanStep& st : plan.steps) {
        const PlanBuffer& ob = plan.buffers[st.out];
        if (st.kind == PlanStep::Kind::ResidualAdd) {
            Tensor& h = bufs[st.out];
            const Tensor& s = bufs[st.in];
            for (size_t i = 0; i < h.size(); ++i)
                h.data()[i] += s.data()[i];
            continue;
        }
        if (st.kind != PlanStep::Kind::Layer)
            return false; // not in the served models
        Tensor in = bufs[st.in];
        if (dynamic_cast<Linear*>(st.mod))
            in.reshape({in.size() / in.shape().back(), in.shape().back()});
        if (rows.size() <= r)
            rows.push_back({ob.name, kindOf(st.mod), sp2Share(st.mod)});
        StepRow& row = rows[r++];
        Tensor out;
        const char* span = spanOf(row.kind);
        row.us[slot] = timeUs([&] {
            Span s(span);
            out = st.mod->forward(in, false);
        });
        out.reshape(ob.shape);
        row.bytes[slot] = double(in.size() + out.size()) * sizeof(float);
        std::string spec;
        for (const char* suffix : {"", ".wx", ".wh"}) {
            auto it = specs.find(ob.name + suffix);
            if (it == specs.end())
                continue;
            const LayerSpec& ls = it->second.first;
            row.macs[slot] += ls.macs();
            row.cycles[slot] += it->second.second;
            char b[96];
            std::snprintf(b, sizeof b, "%s(m=%zu,n=%zu,k=%zu,rep=%zu)",
                          suffix, ls.m, ls.n, ls.k, ls.repeat);
            spec += b;
        }
        if (slot == 0)
            row.spec = spec.empty() ? "-" : spec;
        bufs[st.out] = std::move(out);
    }
    return bitEqual(bufs[plan.outIndex], m.forward(x, false));
}

/** Executor, step replay and ledger rows of one served model. */
void
modelLedger(const char* tag, Module& m, const BatchTraits& traits,
            Tensor (*input)(size_t, uint64_t), const Calib& calib,
            Report& rep, std::string& out)
{
    const std::string pre = std::string("executor.");
    std::vector<double> builds;
    std::unique_ptr<PlanExecutor> exec;
    for (int i = 0; i < 5; ++i) {
        Clock::time_point t = Clock::now();
        {
            Span s("executor.build");
            exec = std::make_unique<PlanExecutor>(m, traits.itemShape,
                                                  traits.batchAxis, kMaxBatch);
        }
        builds.push_back(msBetween(t, Clock::now()));
    }
    rep.set(pre + "build_ms." + tag, median(builds), "ms");
    rep.set(pre + "slab_bytes." + tag, double(exec->slabBytes()), "bytes");
    rep.set(pre + "scratch_bytes." + tag, double(exec->scratchBytes()),
            "bytes");

    double runUs8 = 0.0;
    for (size_t n : {1, 2, 4, 8}) {
        Tensor x = input(n, 100 + n);
        Tensor want = m.forward(x, false);
        // The input buffer's slab space is reused by later steps, so
        // every run gathers its input again, as a server batch does.
        double us = timeUs([&] {
            Span s("executor.run");
            std::memcpy(exec->inputData(), x.data(),
                        x.size() * sizeof(float));
            exec->run(n);
        });
        if (std::memcmp(exec->outputData(), want.data(),
                        want.size() * sizeof(float)) != 0)
            rep.problem(std::string("executor output differs from the "
                                    "model's forward: ") + tag);
        rep.set(pre + "run_us." + tag + ".n" + std::to_string(n), us, "us");
        if (n == 8)
            runUs8 = us;
    }

    const DesignPoint& dp = designPointByName("D1-2");
    std::vector<StepRow> rows;
    for (size_t slot : {0, 1}) {
        size_t n = slot ? 8 : 1;
        if (!replay(m, input(n, 200 + n), slot, rows, dp))
            rep.problem(std::string("step replay differs from the "
                                    "model's forward: ") + tag);
    }
    std::map<std::string, double> byKind[2];
    double stepSum8 = 0.0;
    for (const StepRow& r : rows) {
        for (int s = 0; s < 2; ++s)
            byKind[s][r.kind] += r.us[s];
        stepSum8 += r.us[1];
        double gops = r.macs[1] * 2.0 / (r.us[1] * 1e3);
        // Share of the ceiling: GEMM steps against the int16 add rate
        // (one add per MAC, computed), the rest against streaming
        // bandwidth (bytes computed from tensor sizes).
        double roof = r.macs[1] > 0
            ? r.macs[1] / (r.us[1] * 1e3) / calib.int16AddGops
            : r.bytes[1] / (r.us[1] * 1e3) / calib.streamGbps;
        char b[512];
        std::snprintf(b, sizeof b,
                      "ledger %s %-22s %-9s spec=%s sp2=%.2f us.n1=%.1f "
                      "us.n8=%.1f gops.n8=%.3f roof_share.n8=%.4f "
                      "sim_cycles.n1=%llu sim_cycles.n8=%llu\n",
                      tag, r.path.c_str(), r.kind, r.spec.c_str(), r.sp2,
                      r.us[0], r.us[1], gops, roof,
                      (unsigned long long)r.cycles[0],
                      (unsigned long long)r.cycles[1]);
        out += b;
    }
    rep.set(pre + "step_cover." + tag, stepSum8 / runUs8, "ratio");
    for (int s = 0; s < 2; ++s) {
        for (const auto& [kind, us] : byKind[s]) {
            // The CNN head Linear (16 -> 4) is a ledger row only; the
            // linear metric is the LSTM's vocabulary head.
            if (kind == "linear" && std::string(tag) == "cnn")
                continue;
            rep.set("nn." + kind + ".us.n" + (s ? "8" : "1"), us, "us");
        }
    }
}

/** qgemm16 and its prologue/epilogue on the LSTM gate panel, plus the
    largest CNN conv panel. */
void
kernelLedger(LstmLm& lm, Module& cnn, const Calib& calib, Report& rep)
{
    Lstm* l0 = nullptr;
    ServePlan lp = planServeForward(lm, {kLmSteps, 1});
    for (const PlanStep& st : lp.steps)
        if (!l0 && st.kind == PlanStep::Kind::Layer)
            l0 = dynamic_cast<Lstm*>(st.mod);
    const PackedQMat& wh = l0->packedQWh();
    const ActQuantParams ap = actQuantParams(l0->hiddenQuant());
    if (!halfwordSafe(ap, wh.cols()))
        rep.problem("gate panel is not halfword-safe");
    const size_t rows = wh.rows(), cols = wh.cols();
    SplitMix g(77);
    for (size_t m : {1, 4, 8, 16}) {
        std::vector<float> x(m * cols);
        for (float& v : x)
            v = float(g.unit() * 2.0 - 1.0);
        std::vector<int16_t> qT(cols * m);
        std::vector<int32_t> acc(rows * m);
        std::vector<float> y(m * rows);
        std::vector<double> fs(rows);
        double qt = timeUs([&] {
            Span s("infer.quantize_transpose");
            quantizeTransposeActs(x.data(), m, cols, ap, qT.data());
        });
        double us = timeUs([&] {
            Span s("infer.qgemm16");
            qgemm16(wh, qT.data(), m, acc.data());
        });
        double rs = timeUs([&] {
            Span s("infer.rescale");
            rescaleLinear(wh, acc.data(), m, ap.invScale, nullptr, y.data(),
                          fs.data());
        });
        std::string ms = ".m" + std::to_string(m);
        rep.set("infer.qgemm16_us.gate" + ms, us, "us");
        if (m == 1 || m == 8)
            rep.set("infer.roof_share.gate" + ms,
                    double(rows * cols * m) / (us * 1e3) / calib.int16AddGops,
                    "ratio");
        if (m == 8) {
            rep.set("infer.quantize_transpose_us", qt, "us");
            rep.set("infer.rescale_us", rs, "us");
        }
    }
    // Pack cost: a fresh pack of the gate panel from its projected
    // float weights.
    std::vector<QuantScheme> schemes(rows);
    std::vector<float> alphas(rows);
    for (size_t r = 0; r < rows; ++r) {
        schemes[r] = wh.rowScheme(r);
        alphas[r] = wh.rowAlpha(r);
    }
    const float* src = l0->whParam().w.data();
    std::vector<double> packMs;
    for (int i = 0; i < 5; ++i) {
        PackedQMat fresh;
        Clock::time_point t = Clock::now();
        {
            Span s("infer.pack");
            fresh.ensure(src, rows, cols, 1, schemes, alphas, wh.bits());
        }
        packMs.push_back(msBetween(t, Clock::now()));
    }
    rep.set("infer.pack_ms", median(packMs), "ms");

    // Largest conv panel of the CNN; columns = items x OH x OW.
    ServePlan cp = planServeForward(cnn, {1, 3, 12, 12});
    const Conv2d* big = nullptr;
    size_t pix = 0;
    for (const PlanStep& st : cp.steps) {
        auto* c = dynamic_cast<Conv2d*>(st.mod);
        if (!c)
            continue;
        const PackedQMat& w = c->packedQWeights();
        if (!big || w.rows() * w.cols() >
                        big->packedQWeights().rows() *
                            big->packedQWeights().cols()) {
            big = c;
            const auto& s = cp.buffers[st.out].shape;
            pix = s[2] * s[3];
        }
    }
    const PackedQMat& wc = big->packedQWeights();
    for (size_t m : {1, 4, 8}) {
        size_t p = m * pix;
        std::vector<int16_t> qT(wc.cols() * p);
        for (int16_t& v : qT)
            v = int16_t(g.below(16)); // 4-bit unsigned activation codes
        std::vector<int32_t> acc(wc.rows() * p);
        double us = timeUs([&] {
            Span s("infer.qgemm16");
            qgemm16(wc, qT.data(), p, acc.data());
        });
        rep.set("infer.qgemm16_us.conv.m" + std::to_string(m), us, "us");
    }
}

} // namespace

void
layerLedger(const Calib& calib, Report& rep, std::string& rowsOut)
{
    auto cnn = buildCnn();
    auto lm = buildLstm();
    modelLedger("cnn", *cnn, cnnTraits(), cnnInput, calib, rep, rowsOut);
    modelLedger("lstm", *lm, lstmTraits(), lstmInput, calib, rep, rowsOut);
    kernelLedger(*lm, *cnn, calib, rep);
}

} // namespace pb
