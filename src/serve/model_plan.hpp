#pragma once
/// \file model_plan.hpp
/// Compiled execution plans for fused end-to-end GNN model serving.
///
/// The defining GNN layer shape is A·X·W: a sparse aggregation (SpMM)
/// chained with a dense feature transform (GEMM) plus a bias/activation
/// epilogue. Serving it as three kernels pays three launches and writes
/// the intermediate to DRAM only to read it straight back; COMET-style
/// SpMM→GEMM fusion keeps the intermediate in registers and folds the
/// epilogue into the second stage's write-out. `compile_model` turns a
/// registered model's parameter stack into a per-layer plan — which side
/// of the aggregation the transform runs on (GCN multiplies by W on the
/// cheaper side), which width the aggregation SpMM runs at (the PlanCache
/// key that makes plans shared across layers, models and plain SpMM
/// traffic), and what the fused vs. composed execution costs on a device.
///
/// Values are computed on the host exactly as the composed pipeline
/// would (same SpMM kernel, same GEMM loop order, same epilogue), so the
/// fused path is bitwise identical to layer-by-layer composition — fusion
/// changes modelled *time*, never values. The modelled fused time is
/// conservative: saved launches plus the intermediate's DRAM round trip,
/// floored at half the slower stage (a fused kernel still runs both
/// stages' work back to back).

#include <cstdint>
#include <vector>

#include "gnn/device_cost.hpp"
#include "kernels/dense.hpp"
#include "kernels/semiring.hpp"
#include "serve/fingerprint.hpp"

namespace gespmm::serve {

using kernels::DenseMatrix;
using kernels::ReduceKind;

/// Which GNN architecture a served model instantiates — the servable
/// subset of `gnn::ModelKind` (GraphSAGE-pool needs the concat/max
/// plumbing the fused path does not model yet).
enum class ServedModelKind {
  /// GCN: per layer act(A · (H · W) + b), transform on the cheaper side.
  Gcn = 0,
  /// GraphSAGE with GCN aggregator: aggregate first, then transform.
  SageGcn,
};

/// "gcn" / "sage-gcn".
const char* served_model_kind_name(ServedModelKind k);

/// A model's parameters over one registered graph: per-layer dense weight
/// (in_l x out_l) and bias (1 x out_l) matrices, row-major.
struct ModelSpec {
  ServedModelKind kind = ServedModelKind::Gcn;
  /// Aggregation semiring (Sum = GCN with pre-normalized adjacency,
  /// Mean = mean-aggregator SAGE).
  ReduceKind reduce = ReduceKind::Sum;
  std::vector<DenseMatrix> weights;
  std::vector<DenseMatrix> bias;
};

/// Deterministic Glorot-initialized spec: `num_layers` transforms routing
/// in_feats -> hidden_feats -> ... -> num_classes, seeded per layer like
/// gnn::Model's parameter stack (seed + 131*l).
ModelSpec make_model_spec(ServedModelKind kind, index_t in_feats,
                          index_t hidden_feats, index_t num_classes,
                          int num_layers, std::uint64_t seed = 0xB0B0);

/// One compiled layer of a model plan.
struct LayerStep {
  index_t in_width = 0;
  index_t out_width = 0;
  /// Width the aggregation SpMM runs at — the PlanCache key width, and
  /// also the width of the fused-away intermediate (equal to `out_width`
  /// when the transform runs first, `in_width` otherwise).
  index_t spmm_width = 0;
  /// GCN rule: run H·W before the aggregation when in_width > out_width
  /// (the SpMM then streams the narrower matrix).
  bool transform_first = false;
  /// ReLU epilogue (every layer but the last).
  bool relu = false;
  ReduceKind reduce = ReduceKind::Sum;
};

/// A compiled model: the execution-plan graph `Engine::submit_model`
/// dispatches as one ticket.
struct ModelPlan {
  /// Content fingerprint over (graph, kind, reduce, parameters):
  /// identical re-registrations dedup on it, and a new model's ModelId
  /// starts from it.
  std::uint64_t key = 0;
  /// GraphFingerprint::key() of the registered adjacency operand — the
  /// *versioned* key when the graph has taken streaming updates. An
  /// `Engine::apply_update` recompiles the plan against the new key under
  /// the model's existing handle, so a stale `graph_key` never outlives
  /// the update that invalidated it.
  std::uint64_t graph_key = 0;
  ServedModelKind kind = ServedModelKind::Gcn;
  std::vector<LayerStep> layers;
  index_t num_nodes = 0;
  index_t in_feats = 0;
  index_t out_feats = 0;
  /// Widest matrix the forward pass materializes — the arena's sizing
  /// bound (every recycled buffer is num_nodes x (<= max_width)).
  index_t max_width = 0;
  /// Sum of per-layer SpMM widths — the whole ticket's width credit in
  /// the DRR scheduler (one model request costs what its aggregations
  /// would cost as individual requests).
  index_t total_spmm_width = 0;
};

/// Validate `spec` against the (square) graph and compile the plan.
/// Throws std::invalid_argument on shape mismatches.
ModelPlan compile_model(std::uint64_t graph_key, const Csr& graph,
                        const ModelSpec& spec);

/// Modelled device-time breakdown of one layer.
struct LayerCost {
  /// The aggregation's plan-cached modelled time.
  double spmm_ms = 0.0;
  double gemm_ms = 0.0;
  /// Bias + activation as standalone element-wise launches.
  double epilogue_ms = 0.0;
  /// SpMM→GEMM fused with the epilogue absorbed: the serving engine's
  /// modelled cost per layer. Always strictly below `composed_ms`.
  double fused_ms = 0.0;
  /// spmm + gemm + epilogue as separate launches — what layer-by-layer
  /// composition through `Engine::submit` plus host transforms pays.
  double composed_ms = 0.0;
};

/// Price one layer on a device given its (plan-cached) SpMM time.
LayerCost price_layer(const LayerStep& s, index_t num_nodes, double spmm_ms,
                      const gnn::DeviceCost& cost);

/// Recycles intermediate buffers across the layers of one forward pass: a
/// put() buffer whose shape matches a later take() is handed back instead
/// of allocating. Hidden layers share widths, so a deep model runs in a
/// ping-pong pair of num_nodes x hidden buffers instead of one fresh
/// allocation per stage; `ModelPlan::max_width` bounds every slot.
/// Buffers are returned as-is, recycled or fresh: every consumer overwrites
/// all elements, so a fresh one skips the zero fill (gpusim::uninitialized).
/// Not thread-safe; one arena per in-flight forward pass.
class ModelArena {
 public:
  /// A row-major rows x cols buffer with unspecified contents — recycled
  /// when an exact-shape slot is pooled, freshly allocated otherwise.
  DenseMatrix take(index_t rows, index_t cols);
  /// Return a buffer to the pool.
  void put(DenseMatrix m);
  /// Buffers currently pooled.
  std::size_t resident() const { return pool_.size(); }
  /// take() calls answered from the pool.
  std::uint64_t reuse_hits() const { return reuse_hits_; }

 private:
  std::vector<DenseMatrix> pool_;
  std::uint64_t reuse_hits_ = 0;
};

/// out = h * w — fixed loop order (k ascending per output element), the
/// GEMM of record for both the fused executor and the composed baseline.
void gemm(const DenseMatrix& h, const DenseMatrix& w, DenseMatrix& out);

/// In place: h += bias (row-broadcast), then ReLU when `relu` — the
/// layer epilogue, shared by both paths for bitwise identity.
void bias_act(DenseMatrix& h, const DenseMatrix& bias, bool relu);

/// out = act(h * w + bias): gemm + bias_act convenience (the dense half
/// of an aggregate-first layer).
void dense_transform(const DenseMatrix& h, const DenseMatrix& w,
                     const DenseMatrix& bias, bool relu, DenseMatrix& out);

/// Compute one layer's values: aggregation (via kernels::spmm_host_parallel)
/// and dense transform in the step's order, epilogue last, intermediates
/// through `arena`. `out` must be num_nodes x s.out_width. Bitwise
/// identical to composing an Engine-submitted SpMM with gemm/bias_act.
void run_layer(const Csr& graph, const LayerStep& s, const DenseMatrix& h,
               const DenseMatrix& w, const DenseMatrix& bias, DenseMatrix& out,
               ModelArena& arena);

}  // namespace gespmm::serve
