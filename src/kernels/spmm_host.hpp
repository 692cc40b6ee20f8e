#pragma once
/// \file spmm_host.hpp
/// Host (CPU) SpMM: the sequential gold reference used by tests, and an
/// OpenMP row-parallel version for computing values without device
/// metrics (`gespmm::spmm`, the serving engine). GNN
/// training does not use it; `gnn::aggregate_forward` has its own loop.
///
/// For row-major B and C the parallel version is a column-tiled fold, the
/// host form of GE-SpMM's two ideas. Each row's (colind, val) is walked
/// once per tile of 8 output columns and every loaded nonzero serves the
/// whole tile (Coalesced Row Caching). The tile accumulates in a
/// fixed-size local array whose lanes each own one output column for the
/// whole walk (Coarse-grained Warp Merging); GCC vectorizes it at -O2.
/// Every output element still folds its row's nonzeros in CSR order from
/// `init()` through `finalize()`, so all four reductions are bitwise
/// identical to the reference. Column-major operands keep a per-element
/// loop.

#include "kernels/dense.hpp"
#include "kernels/semiring.hpp"
#include "sparse/csr.hpp"

namespace gespmm::kernels {

/// Sequential reference: C = reduce_op(A (*) B). C must be rows x N.
template <typename Reduce>
void spmm_host_reference(const sparse::Csr& a, const DenseMatrix& b, DenseMatrix& c) {
  const index_t n = b.cols();
  for (index_t i = 0; i < a.rows; ++i) {
    const index_t lo = a.rowptr[static_cast<std::size_t>(i)];
    const index_t hi = a.rowptr[static_cast<std::size_t>(i) + 1];
    for (index_t j = 0; j < n; ++j) {
      value_t acc = Reduce::init();
      for (index_t p = lo; p < hi; ++p) {
        const index_t k = a.colind[static_cast<std::size_t>(p)];
        acc = Reduce::reduce(acc, Reduce::combine(a.val[static_cast<std::size_t>(p)], b.at(k, j)));
      }
      c.at(i, j) = Reduce::finalize(acc, hi - lo);
    }
  }
}

/// OpenMP-parallel host SpMM, bitwise identical to the reference: rows
/// split across threads and every output element folds in the
/// reference's order. C must be rows x N.
void spmm_host_parallel(const sparse::Csr& a, const DenseMatrix& b, DenseMatrix& c,
                        ReduceKind kind = ReduceKind::Sum);

/// Convenience: run the reference for a runtime ReduceKind.
void spmm_host_reference(const sparse::Csr& a, const DenseMatrix& b, DenseMatrix& c,
                         ReduceKind kind);

}  // namespace gespmm::kernels
