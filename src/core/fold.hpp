// Folding: a trained BNN becomes the deployed xnor::XnorNetwork (paper
// Sec. III-A) -- binary weights packed into bit rows, and every BatchNorm
// + sign pair collapsed into per-channel thresholds (xnor/folding.hpp).
// Each threshold is found by binary search over the integer accumulator
// domain using the exact float predicate the training graph evaluates, so
// the folded network is bit-identical to BatchNorm+sign for every
// representable accumulator, gamma == 0 included. This is the one bridge
// from src/nn to the engine: src/xnor itself includes no nn header.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/sequential.hpp"
#include "xnor/engine.hpp"

namespace bcop::core {

/// Compile a trained BNN. Throws std::runtime_error with a descriptive
/// message if the layer sequence is not a supported BNN topology.
xnor::XnorNetwork fold(nn::Sequential& model);

/// Fold `bn` (running statistics) against an accumulator in
/// [acc_min, acc_max] that maps to the BN input as x = acc * acc_scale.
/// For binary hidden layers acc is the {-1,+1} dot product (acc_scale = 1);
/// for the 8-bit first layer acc is the integer sum of quantized pixels and
/// acc_scale = 1/255.
xnor::ThresholdSpec fold_batchnorm(const nn::BatchNorm& bn,
                                   std::int64_t acc_min, std::int64_t acc_max,
                                   double acc_scale);

/// The exact predicate the training graph evaluates at inference:
/// sign(BatchNorm_inference(x)) >= 0 for channel c with x = acc*acc_scale.
/// Exposed so tests can compare fold results against brute force.
bool bn_sign_predicate(const nn::BatchNorm& bn, std::int64_t c,
                       std::int64_t acc, double acc_scale);

/// Residual (ReBNet) variant of the predicate: the sign of residual level
/// `level` given that levels 0..level-1 fired with the signs in `pattern`
/// (bit j set => level j emitted +1). Mirrors nn::ResidualSign::forward
/// exactly -- e = BN(x), then one float subtraction q_j * (+-1) per
/// earlier level IN ORDER -- so folding against it is bit-faithful to the
/// float graph. `q` are the quantized per-level scales (g_m / 256).
/// level == 0 is bn_sign_predicate.
bool bn_residual_sign_predicate(const nn::BatchNorm& bn, std::int64_t c,
                                std::int64_t acc, double acc_scale,
                                const std::vector<float>& q,
                                std::int64_t level, std::uint32_t pattern);

/// Fold BatchNorm + residual level `level` under `pattern` into one
/// threshold bank (level 0 is fold_batchnorm): subtracting per-level
/// constants preserves weak monotonicity in acc, so the same binary search
/// holds. Throws std::invalid_argument when acc_min > acc_max.
/// A full residual activation needs one bank per (level, pattern) pair:
/// 2^levels - 1 banks, selected at execution time by the signs the
/// earlier levels actually fired.
xnor::ThresholdSpec fold_batchnorm_residual(const nn::BatchNorm& bn,
                                            std::int64_t acc_min,
                                            std::int64_t acc_max,
                                            double acc_scale,
                                            const std::vector<float>& q,
                                            std::int64_t level,
                                            std::uint32_t pattern);

}  // namespace bcop::core
