#include "gnn/models.hpp"

#include <stdexcept>

namespace gespmm::gnn {

Model::Model(Engine& eng, const GnnGraph& graph, const ModelConfig& cfg)
    : eng_(&eng), graph_(&graph), cfg_(cfg) {
  if (cfg.in_feats <= 0 || cfg.num_classes <= 0) {
    throw std::invalid_argument("model: in_feats and num_classes are required");
  }
  if (cfg.num_layers < 1) throw std::invalid_argument("model: need >= 1 layer");
  int in = cfg.in_feats;
  for (int l = 0; l < cfg.num_layers + 1; ++l) {
    // Layer l of num_layers hidden layers plus the output layer; the last
    // layer maps to num_classes (the paper notes the last layer's small N
    // is where GE-SpMM is least competitive).
    const bool last = l == cfg.num_layers;
    const int out = last ? cfg.num_classes : cfg.hidden_feats;
    const std::uint64_t seed = 0xB0B0 + static_cast<std::uint64_t>(l) * 131;
    if (cfg.kind == ModelKind::SagePool) {
      // Pooling transform keeps the width, then [self | pooled] doubles the
      // concat input of the main weight.
      w_pool_.push_back(eng.param(Tensor::glorot(in, in, seed ^ 0xF00)));
      b_pool_.push_back(eng.param(Tensor(1, in)));
      w_.push_back(eng.param(Tensor::glorot(2 * in, out, seed)));
    } else {
      w_.push_back(eng.param(Tensor::glorot(in, out, seed)));
    }
    b_.push_back(eng.param(Tensor(1, out)));
    in = out;
  }
}

VarPtr Model::gcn_layer(const VarPtr& h, std::size_t layer, bool last) {
  // DGL's GraphConv: multiply by W on the cheaper side of the aggregation.
  const auto& w = w_[layer];
  VarPtr in = h;
  if (cfg_.dropout > 0.0) {
    in = eng_->dropout(h, cfg_.dropout, 0xD120 + static_cast<std::uint64_t>(layer));
  }
  VarPtr out;
  if (in->value.cols() > w->value.cols()) {
    VarPtr hw = eng_->matmul(in, w);
    out = eng_->aggregate(*graph_, hw, cfg_.backend, ReduceKind::Sum);
  } else {
    VarPtr ah = eng_->aggregate(*graph_, in, cfg_.backend, ReduceKind::Sum);
    out = eng_->matmul(ah, w);
  }
  out = eng_->add_bias(out, b_[layer]);
  return last ? out : eng_->relu(out);
}

VarPtr Model::sage_gcn_layer(const VarPtr& h, std::size_t layer, bool last) {
  // GraphSAGE-GCN aggregator: mean over neighbours (the graph operand is
  // row-normalized, so the device op is a standard SpMM), then linear.
  VarPtr agg = eng_->aggregate(*graph_, h, cfg_.backend, ReduceKind::Sum);
  VarPtr out = eng_->add_bias(eng_->matmul(agg, w_[layer]), b_[layer]);
  return last ? out : eng_->relu(out);
}

VarPtr Model::sage_pool_layer(const VarPtr& h, std::size_t layer, bool last) {
  // GraphSAGE-pool: transform, max-pool over neighbours (SpMM-like),
  // concat with self features, then linear.
  VarPtr hp = eng_->relu(
      eng_->add_bias(eng_->matmul(h, w_pool_[layer]), b_pool_[layer]));
  VarPtr pooled =
      eng_->aggregate(*graph_, hp, cfg_.spmm_like_backend, ReduceKind::Max);
  VarPtr cat = eng_->concat(h, pooled);
  VarPtr out = eng_->add_bias(eng_->matmul(cat, w_[layer]), b_[layer]);
  return last ? out : eng_->relu(out);
}

VarPtr Model::forward(const VarPtr& features) {
  VarPtr h = features;
  const std::size_t total = w_.size();
  for (std::size_t l = 0; l < total; ++l) {
    const bool last = l + 1 == total;
    switch (cfg_.kind) {
      case ModelKind::Gcn: h = gcn_layer(h, l, last); break;
      case ModelKind::SageGcn: h = sage_gcn_layer(h, l, last); break;
      case ModelKind::SagePool: h = sage_pool_layer(h, l, last); break;
    }
  }
  return h;
}

}  // namespace gespmm::gnn
