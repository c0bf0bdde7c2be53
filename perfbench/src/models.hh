/**
 * @file
 * The served models of the benchmark and their request inputs. The
 * models are built from fixed seeds (they are the program); request
 * inputs come from the run's --seed (they are the workload).
 */
#ifndef PERFBENCH_MODELS_HH
#define PERFBENCH_MODELS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/models.hh"
#include "nn/rnn_models.hh"
#include "serve/server.hh"

namespace pb {

/** LstmLm shape: the paper's working RNN (hidden 256, 2 layers). */
constexpr size_t kLmVocab = 128, kLmEmbed = 64, kLmHidden = 256,
                 kLmLayers = 2, kLmSteps = 16;
/** Serving shape of both servers. */
constexpr size_t kMaxBatch = 8;

/** MiniResNet (4 classes, 3x12x12), calibrated, on the Int backend. */
std::unique_ptr<mixq::Sequential> buildCnn();

/** LstmLm above, calibrated, on the Int backend. */
std::unique_ptr<mixq::LstmLm> buildLstm();

mixq::BatchTraits cnnTraits();
mixq::BatchTraits lstmTraits();

/** @p n CNN items {n, 3, 12, 12}, nonnegative, from @p seed. */
mixq::Tensor cnnInput(size_t n, uint64_t seed);

/** @p n token sequences {kLmSteps, n} (float token ids). */
mixq::Tensor lstmInput(size_t n, uint64_t seed);

/** Bit equality of two tensors (shape and every float's bits). */
bool bitEqual(const mixq::Tensor& a, const mixq::Tensor& b);

/** Deterministic 64-bit generator for workload schedules. */
struct SplitMix
{
    uint64_t s;
    explicit SplitMix(uint64_t seed) : s(seed) {}
    uint64_t next()
    {
        uint64_t z = (s += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, 1). */
    double unit() { return double(next() >> 11) * 0x1.0p-53; }
    size_t below(size_t n) { return size_t(next() % n); }
};

} // namespace pb

#endif // PERFBENCH_MODELS_HH
