#pragma once
/// \file spmm_problem.hpp
/// Device-resident SpMM problem instance: the CSR operand uploaded to
/// simulated device buffers plus the dense input/output matrices. Kernels
/// hold references to a problem; uploading once lets benches launch many
/// kernels against the same operands.
///
/// A problem built with `gpusim::address_only` is a pricing problem: A is
/// uploaded for real (kernels walk its structure), B and C are address-only
/// (device_array.hpp). It reserves the same device ranges in the same
/// order (rowptr, colind, val, B, C), so every run_spmm algorithm reports
/// bit-identical metrics and modelled time on it, and C holds no values.

#include "gpusim/device_array.hpp"
#include "kernels/dense.hpp"
#include "sparse/csr.hpp"

namespace gespmm::kernels {

/// CSR arrays in device buffers.
struct CsrDevice {
  index_t rows = 0;
  index_t cols = 0;
  gpusim::DeviceArray<index_t> rowptr;
  gpusim::DeviceArray<index_t> colind;
  gpusim::DeviceArray<value_t> val;

  CsrDevice() = default;
  explicit CsrDevice(const sparse::Csr& a)
      : rows(a.rows), cols(a.cols),
        rowptr(std::span<const index_t>(a.rowptr)),
        colind(std::span<const index_t>(a.colind)),
        val(std::span<const value_t>(a.val)) {}

  index_t nnz() const { return static_cast<index_t>(colind.size()); }
};

/// A = M x K sparse, B = K x N dense (row-major), C = M x N dense.
struct SpmmProblem {
  CsrDevice A;
  DenseMatrix B;
  DenseMatrix C;

  SpmmProblem() = default;
  /// Upload A, allocate B (caller fills) and C for the given N.
  SpmmProblem(const sparse::Csr& a, index_t n, Layout c_layout = Layout::RowMajor)
      : A(a), B(a.cols, n), C(a.rows, n, c_layout) {}
  /// Upload A and reserve address-only B and C: for runs that read only
  /// the launch result.
  SpmmProblem(const sparse::Csr& a, index_t n, Layout c_layout, gpusim::AddressOnly tag)
      : A(a), B(a.cols, n, Layout::RowMajor, tag), C(a.rows, n, c_layout, tag) {}

  index_t m() const { return A.rows; }
  index_t k() const { return A.cols; }
  index_t n() const { return B.cols(); }

  /// Nominal FLOP count the paper uses for GFLOPS: 2 * nnz * N.
  double nominal_flops() const {
    return 2.0 * static_cast<double>(A.nnz()) * static_cast<double>(n());
  }
};

}  // namespace gespmm::kernels
