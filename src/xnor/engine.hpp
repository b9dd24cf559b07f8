// Fast CPU inference engine for folded BinaryCoP networks.
//
// fold() compiles a trained nn::Sequential (the BinaryConv/BatchNorm/Sign
// pipeline of Table I) into a stage list that evaluates with integer
// arithmetic only:
//   - FirstConv: 8-bit fixed-point pixels x binary weights, integer
//     accumulators, folded thresholds (FINN treats the input layer the same
//     way [7], [27]).
//   - BinConv / BinDense: XNOR + popcount GEMM on bit-packed operands,
//     folded thresholds; the final BinDense has no threshold and its raw
//     accumulators are the logits.
//   - Pool: 2x2 max pool, which on {-1,+1} is the boolean OR of the paper.
// Execution goes through one path only: the stage list is compiled into an
// xnor::ExecutionPlan per input shape (cached on the network) and run by
// the allocation-free interpreter in exec.cpp against a Workspace arena --
// forward() is forward_batch() with N = 1, so single-image and batched
// results can never drift. The deploy::StreamingPipeline consumes the same
// stage list and must match this engine bit-for-bit.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "nn/sequential.hpp"
#include "tensor/bit_tensor.hpp"
#include "tensor/tensor.hpp"
#include "xnor/folding.hpp"

namespace bcop::xnor {

/// ReBNet residual-binarization descriptor for a binary stage's OUTPUT
/// activation (docs/residual-binarization.md). Classic sign stages keep
/// the default: one unscaled {-1,+1} plane fired from the stage's single
/// `thresholds` bank. A residual stage (folded from nn::ResidualSign)
/// emits `levels` packed planes; plane m carries value scale_bits[m]/256
/// and fires from the bank selected by the signs levels 0..m-1 actually
/// produced. Bank 0 (level 0) stays in the stage's `thresholds` field;
/// extra_banks holds the remaining 2^levels - 2 banks in (level, pattern)
/// order: the bank for level m >= 1 under sign pattern p (bit j set =>
/// level j fired +1) lives at index (1 << m) - 2 + p. Truncated serving
/// (ExecutionPlan::compile with a levels cap) uses a strict prefix of
/// this layout -- level m's banks only ever depend on levels < m.
struct ResidualSpec {
  std::int64_t levels = 1;
  std::vector<std::int32_t> scale_bits;    // g_m (value = g_m / 256)
  std::vector<ThresholdSpec> extra_banks;  // levels >= 1, pattern-indexed

  /// Residual stages carry scales even at levels == 1 (plane 0 is worth
  /// g_0/256, not 1); classic sign stages never do.
  bool scaled() const { return !scale_bits.empty(); }
};

/// First layer: quantized-input convolution with binary weights.
struct FirstConvStage {
  std::int64_t k = 0, ci = 0, co = 0;
  tensor::Tensor weights;  // {-1,+1} floats, [K*K*Ci, Co]
  ThresholdSpec thresholds;
  ResidualSpec residual;
};

/// Hidden binary convolution evaluated as XNOR-popcount GEMM.
struct BinConvStage {
  std::int64_t k = 0, ci = 0, co = 0;
  tensor::BitMatrix weights;  // [Co, K*K*Ci] packed rows
  ThresholdSpec thresholds;
  ResidualSpec residual;
};

/// 2x2 stride-2 max pool == boolean OR on the bit encoding.
struct PoolStage {};

/// Marks the NHWC -> flat transition before the fully-connected stages.
struct FlattenStage {};

/// Binary fully-connected. `has_threshold` is false for the classifier
/// layer, whose integer accumulators are the logits.
struct BinDenseStage {
  std::int64_t in = 0, out = 0;
  tensor::BitMatrix weights;  // [Out, In]
  ThresholdSpec thresholds;
  ResidualSpec residual;
  bool has_threshold = true;
};

using Stage =
    std::variant<FirstConvStage, BinConvStage, PoolStage, FlattenStage,
                 BinDenseStage>;

/// Human-readable stage kind for diagnostics and pipeline dumps.
std::string stage_kind(const Stage& s);

/// The residual descriptor of a binary stage's output activation, or
/// nullptr for Pool/Flatten stages (which pass planes through untouched).
/// The classifier BinDense (has_threshold == false) returns its default
/// descriptor; its output is logits, not an activation.
const ResidualSpec* stage_residual(const Stage& s);

class ExecutionPlan;
class Workspace;

class XnorNetwork {
 public:
  XnorNetwork();
  ~XnorNetwork();
  /// Assemble directly from stages (used by the bitstream loader).
  XnorNetwork(std::string name, std::vector<Stage> stages);

  // Copies get a fresh (empty) plan cache; moves keep it -- cached plans
  // reference stages by index, so they stay valid across moves. A
  // moved-from network must be reassigned before serving again: plan_for
  // aborts (BCOP_CHECK) on a null cache instead of lazily reviving it,
  // which was an unlocked check-then-act race.
  XnorNetwork(const XnorNetwork& other);
  XnorNetwork& operator=(const XnorNetwork& other);
  XnorNetwork(XnorNetwork&&) noexcept;
  XnorNetwork& operator=(XnorNetwork&&) noexcept;

  /// Compile a trained BNN. Throws std::runtime_error with a descriptive
  /// message if the layer sequence is not a supported BNN topology.
  static XnorNetwork fold(nn::Sequential& model);

  /// Logits [N, classes] (values are exact integers). Equivalent to
  /// forward_batch() -- one interpreter, one plan, N may be 1.
  tensor::Tensor forward(const tensor::Tensor& input) const;

  /// Batched serving path: activations stay bit-packed (pixel-major
  /// [H*W, C] rows per image) from the first stage to the classifier
  /// logits, so pooling is a word-wise OR and im2row is bit-field
  /// concatenation. Images are split over parallel::ThreadPool::global()
  /// once per call; each replays every layer on its own arena slice, and
  /// a batch of one runs on the calling thread. This convenience overload
  /// runs against a thread-local Workspace; steady-state calls with a
  /// repeated input shape allocate only the returned tensor.
  tensor::Tensor forward_batch(const tensor::Tensor& input,
                               std::int64_t levels = 0) const;

  /// Allocation-free serving form: executes the cached plan for
  /// input.shape() into `ws` (grown on first use, reused after) and writes
  /// the logits into `out`, which is only reallocated when its shape does
  /// not match the plan output. After a warm call, steady state performs
  /// zero heap allocations (measured by tests/test_zero_alloc.cpp).
  /// `levels` caps the residual binarization depth the plan evaluates
  /// (0 = every level the network was trained with; see plan_for).
  void forward_batch(const tensor::Tensor& input, Workspace& ws,
                     tensor::Tensor& out, std::int64_t levels = 0) const;

  /// The frozen execution plan for inputs of this exact shape (batch
  /// included). Compiled on first use, cached for the network's lifetime;
  /// safe to call from multiple threads. The reference stays valid as long
  /// as the network (plans are cached in node-stable storage).
  ///
  /// `levels` caps the residual depth M the plan evaluates: a network
  /// trained at M = 3 serves at M = 1 or 2 by simply dropping the higher
  /// planes and their threshold banks (level m never depends on levels
  /// above it). 0 -- and any cap at or above max_levels() -- means "all
  /// trained levels" and normalizes to the same cache entry.
  const ExecutionPlan& plan_for(const tensor::Shape& input,
                                std::int64_t levels = 0) const;

  /// Deepest residual binarization among the stages (1 for classic BNNs).
  std::int64_t max_levels() const;

  /// Argmax class per sample.
  std::vector<std::int64_t> predict(const tensor::Tensor& input) const;

  /// The [H, W, C] input shape this topology accepts, inferred by walking
  /// the stage list (spatial size is solved backwards from the flatten /
  /// first-dense boundary). Empty shape when the stage list is not an
  /// image-in, dense-out topology.
  tensor::Shape expected_input_shape() const;

  const std::vector<Stage>& stages() const { return stages_; }
  const std::string& name() const { return name_; }

  /// Total weight storage in bits when deployed (binary weights plus
  /// 24-bit threshold words per output channel, FINN-style accounting).
  std::int64_t weight_bits() const;

 private:
  struct PlanCache;

  std::string name_;
  std::vector<Stage> stages_;
  // Not `mutable` anymore: const methods mutate the *pointee* (which has
  // its own mutex discipline), never the pointer. The only writes to the
  // pointer itself are construction and assignment.
  std::unique_ptr<PlanCache> cache_;
};

}  // namespace bcop::xnor
