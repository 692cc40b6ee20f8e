#pragma once
/// \file dense.hpp
/// Dense matrices backed by simulated device buffers. GNN feature matrices
/// are row-major; cuSPARSE's csrmm2 produces column-major output (a
/// property the paper's end-to-end comparison charges a transpose for), so
/// both layouts are representable.

#include <cmath>
#include <span>
#include <stdexcept>

#include "gpusim/device_array.hpp"
#include "sparse/csr.hpp"

namespace gespmm::kernels {

using sparse::index_t;
using sparse::value_t;

enum class Layout { RowMajor, ColMajor };

/// Dense rows x cols matrix on the simulated device, zero-filled unless
/// built with a tag: `gpusim::address_only` (a device range with no host
/// elements, for pricing runs) or `gpusim::uninitialized` (no fill, for an
/// output the caller writes in full; see device_array.hpp).
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(index_t rows, index_t cols, Layout layout = Layout::RowMajor)
      : rows_(rows), cols_(cols), layout_(layout), data_(elements(rows, cols), 0.0f) {}
  DenseMatrix(index_t rows, index_t cols, Layout layout, gpusim::AddressOnly tag)
      : rows_(rows), cols_(cols), layout_(layout), data_(elements(rows, cols), tag) {}
  DenseMatrix(index_t rows, index_t cols, Layout layout, gpusim::Uninitialized tag)
      : rows_(rows), cols_(cols), layout_(layout), data_(elements(rows, cols), tag) {}

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  Layout layout() const { return layout_; }
  std::size_t size() const { return data_.size(); }

  gpusim::DeviceArray<value_t>& device() { return data_; }
  const gpusim::DeviceArray<value_t>& device() const { return data_; }

  /// Host-side element access honouring the layout.
  value_t& at(index_t i, index_t j) { return data_[offset(i, j)]; }
  value_t at(index_t i, index_t j) const { return data_[offset(i, j)]; }

  /// Linear offset of (i, j) given the layout.
  std::size_t offset(index_t i, index_t j) const {
    return layout_ == Layout::RowMajor
               ? static_cast<std::size_t>(i) * cols_ + static_cast<std::size_t>(j)
               : static_cast<std::size_t>(j) * rows_ + static_cast<std::size_t>(i);
  }

  void fill(value_t v) { data_.fill(v); }

  /// Max absolute element-wise difference, layout-agnostic. Throws
  /// std::invalid_argument when the shapes differ. Not a bitwise check: a
  /// NaN on either side is skipped and +0 equals -0.
  double max_abs_diff(const DenseMatrix& o) const {
    if (o.rows_ != rows_ || o.cols_ != cols_) {
      throw std::invalid_argument("DenseMatrix::max_abs_diff: shapes differ");
    }
    double m = 0.0;
    for (index_t i = 0; i < rows_; ++i) {
      for (index_t j = 0; j < cols_; ++j) {
        const double d = std::abs(static_cast<double>(at(i, j)) - o.at(i, j));
        if (d > m) m = d;
      }
    }
    return m;
  }

 private:
  static std::size_t elements(index_t rows, index_t cols) {
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  }

  index_t rows_ = 0;
  index_t cols_ = 0;
  Layout layout_ = Layout::RowMajor;
  gpusim::DeviceArray<value_t> data_;
};

/// Fill with a deterministic pseudo-random pattern (tests/benches).
void fill_random(DenseMatrix& m, std::uint64_t seed, value_t lo = -1.0f, value_t hi = 1.0f);

}  // namespace gespmm::kernels
