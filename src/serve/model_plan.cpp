#include "serve/model_plan.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "gnn/tensor.hpp"
#include "kernels/spmm_host.hpp"

namespace gespmm::serve {

using kernels::value_t;

const char* served_model_kind_name(ServedModelKind k) {
  switch (k) {
    case ServedModelKind::Gcn: return "gcn";
    case ServedModelKind::SageGcn: return "sage-gcn";
  }
  return "?";
}

namespace {

DenseMatrix glorot_dense(index_t rows, index_t cols, std::uint64_t seed) {
  const gnn::Tensor t = gnn::Tensor::glorot(rows, cols, seed);
  DenseMatrix m(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    for (index_t j = 0; j < cols; ++j) m.at(i, j) = t.at(i, j);
  }
  return m;
}

}  // namespace

ModelSpec make_model_spec(ServedModelKind kind, index_t in_feats,
                         index_t hidden_feats, index_t num_classes,
                         int num_layers, std::uint64_t seed) {
  if (num_layers < 1) {
    throw std::invalid_argument("make_model_spec: at least one layer required");
  }
  if (in_feats < 1 || hidden_feats < 1 || num_classes < 1) {
    throw std::invalid_argument("make_model_spec: widths must be positive");
  }
  ModelSpec spec;
  spec.kind = kind;
  for (int l = 0; l < num_layers; ++l) {
    const index_t in = l == 0 ? in_feats : hidden_feats;
    const index_t out = l == num_layers - 1 ? num_classes : hidden_feats;
    const std::uint64_t s = seed + 131ull * static_cast<std::uint64_t>(l);
    spec.weights.push_back(glorot_dense(in, out, s));
    spec.bias.push_back(glorot_dense(1, out, s + 7));
  }
  return spec;
}

ModelPlan compile_model(std::uint64_t graph_key, const Csr& graph,
                        const ModelSpec& spec) {
  if (graph.rows != graph.cols) {
    throw std::invalid_argument(
        "compile_model: adjacency must be square (layer outputs feed the "
        "next layer's aggregation)");
  }
  if (spec.weights.empty()) {
    throw std::invalid_argument("compile_model: model has no layers");
  }
  if (spec.bias.size() != spec.weights.size()) {
    throw std::invalid_argument(
        "compile_model: one bias per weight layer required");
  }

  ModelPlan plan;
  plan.graph_key = graph_key;
  plan.kind = spec.kind;
  plan.num_nodes = graph.rows;
  plan.in_feats = spec.weights.front().rows();
  plan.out_feats = spec.weights.back().cols();
  plan.max_width = plan.in_feats;

  index_t in = plan.in_feats;
  for (std::size_t l = 0; l < spec.weights.size(); ++l) {
    const DenseMatrix& w = spec.weights[l];
    const DenseMatrix& b = spec.bias[l];
    if (w.rows() != in) {
      throw std::invalid_argument(
          "compile_model: layer input width does not match the previous "
          "layer's output width");
    }
    if (w.cols() < 1) {
      throw std::invalid_argument("compile_model: empty weight matrix");
    }
    if (b.rows() != 1 || b.cols() != w.cols()) {
      throw std::invalid_argument("compile_model: bias must be 1 x out_width");
    }
    if (w.layout() != kernels::Layout::RowMajor ||
        b.layout() != kernels::Layout::RowMajor) {
      throw std::invalid_argument("compile_model: parameters must be row-major");
    }
    LayerStep s;
    s.in_width = in;
    s.out_width = w.cols();
    // GCN multiplies by W on the cheaper side of the aggregation (the
    // same rule as gnn::Model::gcn_layer); the SAGE-GCN aggregator always
    // aggregates raw features first.
    s.transform_first =
        spec.kind == ServedModelKind::Gcn && s.in_width > s.out_width;
    s.spmm_width = s.transform_first ? s.out_width : s.in_width;
    s.relu = l + 1 < spec.weights.size();
    s.reduce = spec.reduce;
    plan.layers.push_back(s);

    plan.max_width = std::max(plan.max_width, s.out_width);
    plan.total_spmm_width += s.spmm_width;
    in = s.out_width;
  }

  // Content fingerprint: everything execution depends on, so identical
  // re-registrations dedup and any parameter change is a new model.
  std::uint64_t key = mix64(graph_key, 0x6d6f64656cull);  // "model"
  key = mix64(key, static_cast<std::uint64_t>(spec.kind));
  key = mix64(key, static_cast<std::uint64_t>(spec.reduce));
  key = mix64(key, spec.weights.size());
  for (std::size_t l = 0; l < spec.weights.size(); ++l) {
    const DenseMatrix& w = spec.weights[l];
    key = mix64(key, static_cast<std::uint64_t>(w.rows()));
    key = mix64(key, static_cast<std::uint64_t>(w.cols()));
    for (index_t i = 0; i < w.rows(); ++i) {
      for (index_t j = 0; j < w.cols(); ++j) {
        key = mix64(key, std::bit_cast<std::uint32_t>(w.at(i, j)));
      }
    }
    const DenseMatrix& b = spec.bias[l];
    for (index_t j = 0; j < b.cols(); ++j) {
      key = mix64(key, std::bit_cast<std::uint32_t>(b.at(0, j)));
    }
  }
  plan.key = key;
  return plan;
}

LayerCost price_layer(const LayerStep& s, index_t num_nodes, double spmm_ms,
                      const gnn::DeviceCost& cost) {
  LayerCost c;
  c.spmm_ms = spmm_ms;
  const auto m = static_cast<std::int64_t>(num_nodes);
  c.gemm_ms = cost.gemm_ms(m, s.in_width, s.out_width);
  // Composed epilogue: bias add and (optionally) ReLU each read + write
  // the num_nodes x out_width output as their own launch.
  const auto out_bytes =
      static_cast<std::uint64_t>(8) * static_cast<std::uint64_t>(m) *
      static_cast<std::uint64_t>(s.out_width);
  c.epilogue_ms = cost.elementwise_ms(out_bytes);
  if (s.relu) c.epilogue_ms += cost.elementwise_ms(out_bytes);
  c.composed_ms = c.spmm_ms + c.gemm_ms + c.epilogue_ms;

  // Fusion keeps the num_nodes x spmm_width intermediate in registers —
  // its DRAM round trip (one write + one read at GEMM-grade bandwidth)
  // and the second launch disappear, and the epilogue folds into the
  // write-out for free. Floor at half the slower stage: a fused kernel
  // still runs both stages' arithmetic back to back.
  const double inter_bytes = 2.0 * 4.0 * static_cast<double>(m) * s.spmm_width;
  const double inter_ms =
      inter_bytes / (cost.dev.dram_bw_gbps * 0.75 * 1e9) * 1e3;
  const double fused = c.spmm_ms + c.gemm_ms - cost.launch_ms() - inter_ms;
  c.fused_ms = std::max(fused, 0.5 * std::max(c.spmm_ms, c.gemm_ms));
  return c;
}

DenseMatrix ModelArena::take(index_t rows, index_t cols) {
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (pool_[i].rows() == rows && pool_[i].cols() == cols &&
        pool_[i].layout() == kernels::Layout::RowMajor) {
      DenseMatrix m = std::move(pool_[i]);
      pool_[i] = std::move(pool_.back());
      pool_.pop_back();
      ++reuse_hits_;
      return m;
    }
  }
  return DenseMatrix(rows, cols, kernels::Layout::RowMajor, gpusim::uninitialized);
}

void ModelArena::put(DenseMatrix m) {
  if (m.rows() > 0 && m.cols() > 0) pool_.push_back(std::move(m));
}

void gemm(const DenseMatrix& h, const DenseMatrix& w, DenseMatrix& out) {
  const index_t m = h.rows();
  const index_t k = h.cols();
  const index_t n = w.cols();
  if (w.rows() != k || out.rows() != m || out.cols() != n) {
    throw std::invalid_argument("gemm: shape mismatch");
  }
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = 0; j < n; ++j) {
      value_t acc = 0.0f;
      for (index_t p = 0; p < k; ++p) acc += h.at(i, p) * w.at(p, j);
      out.at(i, j) = acc;
    }
  }
}

void bias_act(DenseMatrix& h, const DenseMatrix& bias, bool relu) {
  if (bias.rows() != 1 || bias.cols() != h.cols()) {
    throw std::invalid_argument("bias_act: bias must be 1 x cols");
  }
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < h.rows(); ++i) {
    for (index_t j = 0; j < h.cols(); ++j) {
      value_t v = h.at(i, j) + bias.at(0, j);
      if (relu && v < 0.0f) v = 0.0f;
      h.at(i, j) = v;
    }
  }
}

void dense_transform(const DenseMatrix& h, const DenseMatrix& w,
                     const DenseMatrix& bias, bool relu, DenseMatrix& out) {
  gemm(h, w, out);
  bias_act(out, bias, relu);
}

void run_layer(const Csr& graph, const LayerStep& s, const DenseMatrix& h,
               const DenseMatrix& w, const DenseMatrix& bias, DenseMatrix& out,
               ModelArena& arena) {
  if (out.rows() != graph.rows || out.cols() != s.out_width) {
    throw std::invalid_argument("run_layer: out must be num_nodes x out_width");
  }
  if (s.transform_first) {
    DenseMatrix t = arena.take(h.rows(), s.out_width);
    gemm(h, w, t);
    kernels::spmm_host_parallel(graph, t, out, s.reduce);
    arena.put(std::move(t));
    bias_act(out, bias, s.relu);
  } else {
    DenseMatrix t = arena.take(graph.rows, s.in_width);
    kernels::spmm_host_parallel(graph, h, t, s.reduce);
    dense_transform(t, w, bias, s.relu, out);
    arena.put(std::move(t));
  }
}

}  // namespace gespmm::serve
