#pragma once
/// \file tensor.hpp
/// Minimal 2-D row-major float tensor with the operations GNN models need.
/// Values are computed on the host (OpenMP); device *time* for each
/// operation is charged separately through gnn::DeviceCost + OpProfiler,
/// mirroring how the paper measures CUDA time with the PyTorch profiler.

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace gespmm::gnn {

using sparse::index_t;
using sparse::value_t;

class Tensor {
 public:
  Tensor() = default;
  Tensor(index_t rows, index_t cols, value_t fill = 0.0f)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), fill) {}

  /// Glorot-style deterministic init.
  static Tensor glorot(index_t rows, index_t cols, std::uint64_t seed);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  std::uint64_t bytes() const { return data_.size() * sizeof(value_t); }

  value_t& at(index_t i, index_t j) {
    return data_[static_cast<std::size_t>(i) * cols_ + static_cast<std::size_t>(j)];
  }
  value_t at(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i) * cols_ + static_cast<std::size_t>(j)];
  }
  std::span<value_t> flat() { return data_; }
  std::span<const value_t> flat() const { return data_; }

  bool same_shape(const Tensor& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<value_t> data_;
};

// --- Value computations (host; OpenMP where it matters) ---

/// C = A * B (GEMM).
Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A * B^T.
Tensor matmul_bt(const Tensor& a, const Tensor& b);
/// C = A^T * B.
Tensor matmul_at(const Tensor& a, const Tensor& b);
Tensor transpose(const Tensor& a);
Tensor add(const Tensor& a, const Tensor& b);
/// Adds row-vector bias (1 x cols) to every row.
Tensor add_bias(const Tensor& a, const Tensor& bias);
Tensor relu(const Tensor& a);
/// Element-wise product (used by ReLU backward).
Tensor hadamard(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, value_t s);
/// Column-sum into a 1 x cols tensor (bias gradient).
Tensor colsum(const Tensor& a);
/// Concatenate along columns: [a | b].
Tensor concat_cols(const Tensor& a, const Tensor& b);
/// Split gradient of concat_cols back into the two parts.
void split_cols(const Tensor& g, index_t a_cols, Tensor& ga, Tensor& gb);

/// Row-wise log-softmax.
Tensor log_softmax(const Tensor& a);
/// Mean negative log-likelihood of `labels` under log-probabilities `logp`,
/// and its gradient w.r.t. the logits.
struct LossResult {
  double loss = 0.0;
  Tensor grad_logits;
  double accuracy = 0.0;
};
LossResult nll_loss(const Tensor& logits_logp, std::span<const int> labels);

}  // namespace gespmm::gnn
