#pragma once
/// Shared helpers for the test suite.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>

#include "kernels/dense.hpp"
#include "kernels/semiring.hpp"
#include "kernels/spmm_host.hpp"
#include "kernels/spmm_problem.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"

namespace gespmm::testutil {

using kernels::DenseMatrix;
using kernels::Layout;
using kernels::ReduceKind;
using sparse::Csr;
using sparse::index_t;
using sparse::value_t;

/// A small, structurally diverse zoo of matrices for correctness sweeps.
inline Csr zoo_uniform() { return sparse::uniform_random(200, 200, 2000, 1); }
inline Csr zoo_skewed() { return sparse::rmat(9, 8.0, 0.5, 0.2, 0.2, 2); }
inline Csr zoo_wide_row() {
  // One row with ~1000 nnz (exceeds many CRC tiles), plus sparse rest.
  Csr a = sparse::uniform_random(64, 512, 300, 3);
  std::vector<index_t> r, c;
  std::vector<value_t> v;
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      r.push_back(i);
      c.push_back(a.colind[static_cast<std::size_t>(p)]);
      v.push_back(a.val[static_cast<std::size_t>(p)]);
    }
  }
  for (index_t j = 0; j < 500; ++j) {
    r.push_back(5);
    c.push_back(j);
    v.push_back(0.5f + 0.001f * static_cast<value_t>(j));
  }
  return sparse::csr_from_triplets(64, 512, r, c, v);
}
inline Csr zoo_empty_rows() {
  // Rows 0, 3, 7 empty.
  std::vector<index_t> r{1, 1, 2, 4, 5, 6, 6, 6};
  std::vector<index_t> c{0, 3, 2, 1, 7, 0, 4, 6};
  std::vector<value_t> v{1, 2, 3, 4, 5, 6, 7, 8};
  return sparse::csr_from_triplets(8, 8, r, c, v);
}
inline Csr zoo_single_entry() {
  std::vector<index_t> r{0}, c{0};
  std::vector<value_t> v{2.5f};
  return sparse::csr_from_triplets(1, 1, r, c, v);
}
inline Csr zoo_all_empty() { return Csr(6, 6); }

/// The whole zoo as a named list, for sweeps that report per-case failures.
struct ZooCase {
  std::string name;
  Csr matrix;
};
inline std::vector<ZooCase> zoo_cases() {
  return {{"uniform", zoo_uniform()},         {"skewed", zoo_skewed()},
          {"wide_row", zoo_wide_row()},       {"empty_rows", zoo_empty_rows()},
          {"single_entry", zoo_single_entry()}, {"all_empty", zoo_all_empty()}};
}

/// The sequential reference output for `b` under `kind`: the oracle of
/// every bitwise assertion.
inline DenseMatrix reference_spmm(const Csr& a, const DenseMatrix& b,
                                  ReduceKind kind = ReduceKind::Sum) {
  DenseMatrix c(a.rows, b.cols());
  kernels::spmm_host_reference(a, b, c, kind);
  return c;
}

/// Byte-for-byte equality of two matrices' elements, whatever their
/// layouts: equal shapes, and every element the same bit pattern. Unlike
/// `max_abs_diff(o) == 0.0` it fails on a NaN mismatch and on +0 against
/// -0. The failure message names the first differing element.
inline ::testing::AssertionResult bitwise_equal(const DenseMatrix& got,
                                                const DenseMatrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure() << "shape " << got.rows() << "x" << got.cols()
                                         << " vs " << want.rows() << "x" << want.cols();
  }
  for (index_t i = 0; i < got.rows(); ++i) {
    for (index_t j = 0; j < got.cols(); ++j) {
      const std::uint32_t g = std::bit_cast<std::uint32_t>(got.at(i, j));
      const std::uint32_t w = std::bit_cast<std::uint32_t>(want.at(i, j));
      if (g != w) {
        char bits[32];
        std::snprintf(bits, sizeof(bits), "0x%08x vs 0x%08x", g, w);
        return ::testing::AssertionFailure()
               << "element (" << i << ", " << j << "): " << got.at(i, j) << " vs "
               << want.at(i, j) << " (" << bits << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Reference comparison with mixed-order float tolerance.
inline void expect_matches_reference(const Csr& a, const DenseMatrix& b,
                                     const DenseMatrix& c, ReduceKind kind,
                                     double tol = 2e-4) {
  const DenseMatrix ref = reference_spmm(a, b, kind);
  double worst = 0.0;
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t j = 0; j < b.cols(); ++j) {
      const double d = std::abs(static_cast<double>(c.at(i, j)) - ref.at(i, j));
      const double scale = std::max(1.0, std::abs(static_cast<double>(ref.at(i, j))));
      worst = std::max(worst, d / scale);
    }
  }
  EXPECT_LE(worst, tol) << "kernel output deviates from reference";
}

}  // namespace gespmm::testutil
