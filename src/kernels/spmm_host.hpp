#pragma once
/// \file spmm_host.hpp
/// Host (CPU) SpMM: the sequential gold reference used by tests, and an
/// OpenMP row-parallel fold for computing values without device metrics.
/// The fold is the only host loop that folds CSR rows into SpMM-like
/// values: `gespmm::spmm`, `gespmm::spmm_like`, GNN aggregation and the
/// serving engine all run it.
///
/// The fold is column-tiled, the host form of GE-SpMM's two ideas. Each
/// row's (colind, val) is walked once per tile of 8 output columns and
/// every loaded nonzero serves the whole tile (Coalesced Row Caching). The
/// tile accumulates in a fixed-size local array whose lanes each own one
/// output column for the whole walk (Coarse-grained Warp Merging); GCC
/// vectorizes it at -O2 for the built-in reductions. Rows are scheduled in
/// chunks of 64. When a B row spans more than one 64-byte cache line
/// (N > 16), a cursor runs 16 nonzeros ahead of the fold within the chunk
/// and prefetches every line of those B rows, CRC's latency hiding: the
/// dense-row loads of many nonzeros are in flight at once. Every output
/// element still folds its row's nonzeros in CSR order from `init()`
/// through `finalize()`, so all four built-in reductions are bitwise
/// identical to the reference. B and C must be row-major.

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
/// reference's order. A's rows land in C's rows
/// [row_begin, row_begin + A.rows); C's other rows are not touched, so a
/// row slice of a larger operand (a shard) computes in place. Throws
/// std::invalid_argument unless B and C are row-major, B.rows == A.cols,
/// C.cols == B.cols and 0 <= row_begin <= C.rows - A.rows.
void spmm_host_parallel(const sparse::Csr& a, const DenseMatrix& b, DenseMatrix& c,
                        ReduceKind kind = ReduceKind::Sum, index_t row_begin = 0);

/// The same fold with user-defined callbacks, into C's rows [0, A.rows).
/// Same shape and layout checks; also throws std::invalid_argument when
/// `op.init` or `op.reduce` is missing. A missing combine multiplies and a
/// missing finalize returns the accumulator. The callbacks are called once
/// per output element and nonzero, from OpenMP threads.
void spmm_host_parallel(const sparse::Csr& a, const DenseMatrix& b, DenseMatrix& c,
                        const CustomReduceOp& op);

/// The unchecked fold over raw row-major storage: `b` holds A.cols x n
/// values and `c` receives A.rows x n. For callers that do not hold a
/// DenseMatrix (gnn::Tensor); the caller guarantees the sizes.
void spmm_host_rows(const sparse::Csr& a, const value_t* b, value_t* c, index_t n,
                    ReduceKind kind);

/// Convenience: run the reference for a runtime ReduceKind.
void spmm_host_reference(const sparse::Csr& a, const DenseMatrix& b, DenseMatrix& c,
                         ReduceKind kind);

}  // namespace gespmm::kernels
