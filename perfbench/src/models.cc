#include "models.hh"

#include <cstring>

#include "infer/session.hh"
#include "nn/trainer.hh"
#include "quant/qconfig.hh"
#include "util/rng.hh"

using namespace mixq;

namespace pb {

namespace {

/** QAT-calibrate @p model on @p cal and switch it to the Int backend. */
void
toInt(Module& model, const Tensor& cal)
{
    QConfig cfg;
    QatContext qat(cfg);
    qat.attach(model.params());
    model.setActQuant(cfg.actBits, true);
    model.forward(cal, true);
    qat.finalize();
    applyInferBackend(model, InferBackend::Int, &qat);
}

} // namespace

std::unique_ptr<Sequential>
buildCnn()
{
    Rng rng(7);
    auto model = makeMiniResNet(4, rng, 8);
    toInt(*model, cnnInput(8, 8));
    return model;
}

std::unique_ptr<LstmLm>
buildLstm()
{
    Rng rng(9);
    auto lm = std::make_unique<LstmLm>(kLmVocab, kLmEmbed, kLmHidden,
                                       kLmLayers, rng);
    toInt(*lm, lstmInput(8, 10));
    return lm;
}

BatchTraits
cnnTraits()
{
    BatchTraits t;
    t.itemShape = {1, 3, 12, 12};
    return t;
}

BatchTraits
lstmTraits()
{
    BatchTraits t;
    t.itemShape = {kLmSteps, 1};
    t.batchAxis = 1;
    t.timeMajorOut = true;
    return t;
}

Tensor
cnnInput(size_t n, uint64_t seed)
{
    Rng rng(seed);
    Tensor x = Tensor::randn({n, 3, 12, 12}, rng, 1.0);
    for (float& v : x.span())
        v = v < 0.0f ? -v : v;
    return x;
}

Tensor
lstmInput(size_t n, uint64_t seed)
{
    SplitMix g(seed);
    Tensor x({kLmSteps, n});
    for (float& v : x.span())
        v = float(g.below(kLmVocab));
    return x;
}

bool
bitEqual(const Tensor& a, const Tensor& b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

} // namespace pb
