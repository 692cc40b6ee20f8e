#pragma once
/// \file models.hpp
/// The GNN models of the paper's end-to-end evaluation:
///  - GCN (Kipf & Welling):         H' = sigma(A_hat H W + b)
///  - GraphSAGE-GCN (Hamilton et al.): H' = sigma(mean-agg(A, H) W + b)
///    (internally a standard SpMM over the row-normalized adjacency)
///  - GraphSAGE-pool:               H' = sigma([H | max-agg(A, sigma(H W_p + b_p))] W)
///    (internally an SpMM-like with max reduction — not supported by
///     cuSPARSE, which is the point of Table IX)
/// Each model is parameterized by (num_layers, hidden_feats) exactly like
/// the (x, y) labels of Figs. 13/14.

#include <memory>
#include <string>
#include <vector>

#include "gnn/autograd.hpp"

namespace gespmm::gnn {

enum class ModelKind { Gcn, SageGcn, SagePool };

struct ModelConfig {
  ModelKind kind = ModelKind::Gcn;
  int num_layers = 2;        ///< number of hidden graph layers ("x" in the paper)
  int hidden_feats = 16;     ///< hidden width ("y" in the paper)
  int in_feats = 0;
  int num_classes = 0;
  AggregatorBackend backend = AggregatorBackend::DglCusparse;
  /// Backend used for SpMM-like (pooling) aggregations; DGL pairs
  /// csrmm2-SpMM with its fallback for SpMM-like.
  AggregatorBackend spmm_like_backend = AggregatorBackend::DglFallback;
  /// Dropout probability applied to layer inputs (0 disables; DGL's GCN
  /// example default is 0.5).
  double dropout = 0.0;
};

/// A multi-layer GNN with parameters registered in an Engine.
class Model {
 public:
  Model(Engine& eng, const GnnGraph& graph, const ModelConfig& cfg);

  /// Forward pass producing logits (num_nodes x num_classes).
  VarPtr forward(const VarPtr& features);

  const ModelConfig& config() const { return cfg_; }

 private:
  VarPtr gcn_layer(const VarPtr& h, std::size_t layer, bool last);
  VarPtr sage_gcn_layer(const VarPtr& h, std::size_t layer, bool last);
  VarPtr sage_pool_layer(const VarPtr& h, std::size_t layer, bool last);

  Engine* eng_;
  const GnnGraph* graph_;
  ModelConfig cfg_;
  // Per layer: main weight + bias; pool layers add the pooling transform.
  std::vector<VarPtr> w_, b_, w_pool_, b_pool_;
};

}  // namespace gespmm::gnn
