#pragma once
/// \file aggregation.hpp
/// Graph aggregation: the operator GE-SpMM accelerates inside GNN
/// frameworks, with the four backends the paper compares end to end:
///  - DglCusparse:  csrmm2 + cuBLAS transpose (DGL's SpMM path)
///  - DglFallback:  DGL's generic kernel (its SpMM-like path)
///  - PyGMessagePassing: gather -> edge messages -> scatter reduce
///  - GeSpMM:       this library's kernel (SpMM and SpMM-like alike)
/// Values are computed on the host; device time comes from the simulator
/// (cached per shape — kernel time is value-independent) or the analytic
/// cost models.

#include <map>
#include <memory>

#include "gnn/device_cost.hpp"
#include "gnn/tensor.hpp"
#include "kernels/registry.hpp"
#include "kernels/semiring.hpp"
#include "sparse/csr.hpp"

namespace gespmm::gnn {

using kernels::ReduceKind;

enum class AggregatorBackend { DglCusparse, DglFallback, PyGMessagePassing, GeSpMM };

const char* backend_name(AggregatorBackend b);

/// A graph prepared for GNN training: forward operand plus its transpose
/// (for backward), with a per-shape device-time cache.
class GnnGraph {
 public:
  GnnGraph(sparse::Csr adj, gpusim::DeviceSpec dev);

  const sparse::Csr& forward_csr() const { return fwd_; }
  const sparse::Csr& backward_csr() const { return bwd_; }
  const gpusim::DeviceSpec& device() const { return dev_; }
  index_t num_nodes() const { return fwd_.rows; }

  /// Simulated/modelled device time of one aggregation with the given
  /// backend and width. Cached — the simulator runs once per distinct
  /// (backend, reduce, n, transposed) shape.
  double aggregation_time_ms(AggregatorBackend backend, ReduceKind reduce, index_t n,
                             bool transposed) const;

 private:
  sparse::Csr fwd_;
  sparse::Csr bwd_;
  gpusim::DeviceSpec dev_;
  DeviceCost cost_;
  /// Content fingerprint of fwd_ — keys the process-wide simulation-time
  /// cache so repeated experiments on the same graph (benches sweep many
  /// model settings) pay for each simulation once.
  std::uint64_t fingerprint_ = 0;
};

/// Forward aggregation: out = A (*) x under `reduce`, computed by the host
/// fold (kernels::spmm_host_rows), so every reduction follows its
/// kernels::*Reduce semiring bit for bit. Throws std::invalid_argument
/// unless x.rows() == a.cols.
Tensor aggregate_forward(const sparse::Csr& a, const Tensor& x, ReduceKind reduce);

/// Backward of sum-aggregation: dX = A^T * dY (A^T passed explicitly).
Tensor aggregate_backward_sum(const sparse::Csr& a_transposed, const Tensor& dy);

/// Backward of mean-aggregation: dX = A^T * (dY / row nnz), each row of dY
/// divided by its row's nonzero count in A. Empty rows contribute nothing.
Tensor aggregate_backward_mean(const sparse::Csr& a, const sparse::Csr& a_transposed,
                               const Tensor& dy);

/// Backward of max- and min-aggregation, from the forward input `x` and
/// output `y = aggregate_forward(a, x, reduce)`: each output gradient
/// dY[i][j], times the nonzero's value, goes to the first nonzero p of row
/// i (CSR order) whose product val[p] * x[colind[p]][j] equals y[i][j]:
/// the first maximum (minimum). An output that no product equals (an empty
/// row, or a NaN) routes nothing.
Tensor aggregate_backward_select(const sparse::Csr& a, const Tensor& x, const Tensor& y,
                                 const Tensor& dy);

}  // namespace gespmm::gnn
