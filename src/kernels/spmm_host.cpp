#include "kernels/spmm_host.hpp"

#include "sparse/rng.hpp"

namespace gespmm::kernels {

namespace {

/// Output columns one walk of a sparse row produces. Eight floats stay in
/// vector registers and vectorize at -O2; 16 and 32 measured 10-30 %
/// slower.
constexpr index_t kColumnTile = 8;

/// Fold row i of A into the Width consecutive columns of C that start at
/// column j0 (B and C row-major, n columns). Every accumulator lane folds
/// the row's nonzeros in CSR order from R::init(), exactly as the
/// reference does for its column.
template <typename R, index_t Width>
void fold_row_tile(const sparse::Csr& a, index_t i, const value_t* b, value_t* c,
                   index_t n, index_t j0) {
  const index_t lo = a.rowptr[static_cast<std::size_t>(i)];
  const index_t hi = a.rowptr[static_cast<std::size_t>(i) + 1];
  value_t acc[Width];
  for (index_t t = 0; t < Width; ++t) acc[t] = R::init();
  for (index_t p = lo; p < hi; ++p) {
    const value_t v = a.val[static_cast<std::size_t>(p)];
    const value_t* bk =
        b + static_cast<std::size_t>(a.colind[static_cast<std::size_t>(p)]) *
                static_cast<std::size_t>(n) +
        static_cast<std::size_t>(j0);
    for (index_t t = 0; t < Width; ++t) acc[t] = R::reduce(acc[t], R::combine(v, bk[t]));
  }
  value_t* ci = c + static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(j0);
  for (index_t t = 0; t < Width; ++t) ci[t] = R::finalize(acc[t], hi - lo);
}

/// Row-major B and C: per row, one walk of (colind, val) per column tile
/// (CRC's reuse of a loaded sparse row), each tile's columns owned by
/// fixed accumulator lanes (CWM). Columns past the last full tile fold one
/// at a time.
template <typename R>
void spmm_row_major_tiled(const sparse::Csr& a, const DenseMatrix& b, DenseMatrix& c) {
  const index_t n = b.cols();
  const index_t full = n - n % kColumnTile;
  const value_t* bp = b.device().data();
  value_t* cp = c.device().data();
#pragma omp parallel for schedule(dynamic, 64)
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t j0 = 0; j0 < full; j0 += kColumnTile) {
      fold_row_tile<R, kColumnTile>(a, i, bp, cp, n, j0);
    }
    for (index_t j = full; j < n; ++j) fold_row_tile<R, 1>(a, i, bp, cp, n, j);
  }
}

/// Any column-major operand: one CSR walk per output element.
template <typename R>
void spmm_any_layout(const sparse::Csr& a, const DenseMatrix& b, DenseMatrix& c) {
  const index_t n = b.cols();
#pragma omp parallel for schedule(dynamic, 64)
  for (index_t i = 0; i < a.rows; ++i) {
    const index_t lo = a.rowptr[static_cast<std::size_t>(i)];
    const index_t hi = a.rowptr[static_cast<std::size_t>(i) + 1];
    for (index_t j = 0; j < n; ++j) {
      value_t acc = R::init();
      for (index_t p = lo; p < hi; ++p) {
        const index_t k = a.colind[static_cast<std::size_t>(p)];
        acc = R::reduce(acc, R::combine(a.val[static_cast<std::size_t>(p)], b.at(k, j)));
      }
      c.at(i, j) = R::finalize(acc, hi - lo);
    }
  }
}

}  // namespace

void spmm_host_reference(const sparse::Csr& a, const DenseMatrix& b, DenseMatrix& c,
                         ReduceKind kind) {
  with_semiring(kind, [&]<typename R>() { spmm_host_reference<R>(a, b, c); });
}

void spmm_host_parallel(const sparse::Csr& a, const DenseMatrix& b, DenseMatrix& c,
                        ReduceKind kind) {
  with_semiring(kind, [&]<typename R>() {
    if (b.layout() == Layout::RowMajor && c.layout() == Layout::RowMajor) {
      spmm_row_major_tiled<R>(a, b, c);
    } else {
      spmm_any_layout<R>(a, b, c);
    }
  });
}

void fill_random(DenseMatrix& m, std::uint64_t seed, value_t lo, value_t hi) {
  sparse::SplitMix64 rng(seed);
  auto host = m.device().host();
  for (auto& v : host) v = rng.next_float(lo, hi);
}

}  // namespace gespmm::kernels
