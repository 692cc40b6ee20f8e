#include "kernels/spmm_host.hpp"

#include <cstdint>
#include <stdexcept>

#include "sparse/rng.hpp"

namespace gespmm::kernels {

namespace {

/// Output columns one walk of a sparse row produces. Eight floats stay in
/// vector registers and vectorize at -O2; 16 and 32 measured 10-30 %
/// slower.
constexpr index_t kColumnTile = 8;

/// Rows per unit of dynamic scheduling. The prefetch cursor never leaves
/// its chunk, so a thread only prefetches B rows it folds itself.
constexpr index_t kRowChunk = 64;

/// Nonzeros the prefetch cursor runs ahead of the fold.
constexpr index_t kPrefetchAhead = 16;

/// Cache line size of the x86-64 and AArch64 cores the host kernel runs on.
constexpr std::size_t kCacheLine = 64;

/// Walks one chunk's nonzeros ahead of the fold, prefetching every cache
/// line of each nonzero's B row. A tile walk reads only 32 bytes of each B
/// row, so without it a wide B row arrives over several rounds of misses;
/// running ahead lets the loads of many nonzeros overlap, as Coalesced Row
/// Caching does for a warp.
struct PrefetchCursor {
  const sparse::Csr& a;
  const value_t* b;
  index_t n;
  /// Next nonzero to prefetch, and the chunk's end.
  index_t next;
  index_t end;

  /// Prefetch the B rows of the nonzeros up to kPrefetchAhead past p (a
  /// nonzero of the chunk), never past the chunk's end.
  void run_ahead_of(index_t p) {
    const std::size_t row_bytes = static_cast<std::size_t>(n) * sizeof(value_t);
    const index_t stop = end - p > kPrefetchAhead ? p + kPrefetchAhead : end;
    for (; next < stop; ++next) {
      const auto first = reinterpret_cast<std::uintptr_t>(
          b + static_cast<std::size_t>(a.colind[static_cast<std::size_t>(next)]) *
                  static_cast<std::size_t>(n));
      for (std::uintptr_t line = first / kCacheLine * kCacheLine; line < first + row_bytes;
           line += kCacheLine) {
        __builtin_prefetch(reinterpret_cast<const void*>(line));
      }
    }
  }
};

/// Fold row i of A into the Width consecutive columns of C that start at
/// column j0 (B and C row-major, n columns; c points at the output row for
/// A's row 0). Every accumulator lane folds the row's nonzeros in CSR order
/// from r.init(), exactly as the reference does for its column. With
/// Prefetch, each nonzero's fold first advances `ahead` kPrefetchAhead
/// nonzeros past itself.
template <index_t Width, bool Prefetch = false, typename R>
void fold_row_tile(const R& r, const sparse::Csr& a, index_t i, const value_t* b, value_t* c,
                   index_t n, index_t j0, PrefetchCursor* ahead = nullptr) {
  const index_t lo = a.rowptr[static_cast<std::size_t>(i)];
  const index_t hi = a.rowptr[static_cast<std::size_t>(i) + 1];
  value_t acc[Width];
  for (index_t t = 0; t < Width; ++t) acc[t] = r.init();
  for (index_t p = lo; p < hi; ++p) {
    if constexpr (Prefetch) ahead->run_ahead_of(p);
    const value_t v = a.val[static_cast<std::size_t>(p)];
    const value_t* bk =
        b + static_cast<std::size_t>(a.colind[static_cast<std::size_t>(p)]) *
                static_cast<std::size_t>(n) +
        static_cast<std::size_t>(j0);
    for (index_t t = 0; t < Width; ++t) acc[t] = r.reduce(acc[t], r.combine(v, bk[t]));
  }
  value_t* ci = c + static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(j0);
  for (index_t t = 0; t < Width; ++t) ci[t] = r.finalize(acc[t], hi - lo);
}

/// The fold over all of A's rows: per row, one walk of (colind, val) per
/// column tile (CRC's reuse of a loaded sparse row), each tile's columns
/// owned by fixed accumulator lanes (CWM). Columns past the last full tile
/// fold one at a time. When a B row spans more than one cache line, the
/// first tile's walk drives the chunk's prefetch cursor, which also
/// crosses into the next rows. At 16 columns or fewer a B row holds at
/// most one line's worth of bytes, and prefetching measured slower.
template <typename R>
void fold_rows(const R& r, const sparse::Csr& a, const value_t* b, value_t* c, index_t n) {
  const index_t full = n - n % kColumnTile;
  const bool prefetch = static_cast<std::size_t>(n) * sizeof(value_t) > kCacheLine;
  const index_t chunks = a.rows / kRowChunk + (a.rows % kRowChunk != 0 ? 1 : 0);
#pragma omp parallel for schedule(dynamic, 1)
  for (index_t chunk = 0; chunk < chunks; ++chunk) {
    const index_t r0 = chunk * kRowChunk;
    const index_t r1 = a.rows - r0 > kRowChunk ? r0 + kRowChunk : a.rows;
    PrefetchCursor ahead{a, b, n, a.rowptr[static_cast<std::size_t>(r0)],
                         a.rowptr[static_cast<std::size_t>(r1)]};
    for (index_t i = r0; i < r1; ++i) {
      index_t j0 = 0;
      if (prefetch) {
        fold_row_tile<kColumnTile, true>(r, a, i, b, c, n, 0, &ahead);
        j0 = kColumnTile;
      }
      for (; j0 < full; j0 += kColumnTile) fold_row_tile<kColumnTile>(r, a, i, b, c, n, j0);
      for (index_t j = full; j < n; ++j) fold_row_tile<1>(r, a, i, b, c, n, j);
    }
  }
}

/// The shape and layout contract of both spmm_host_parallel overloads.
void check_operands(const sparse::Csr& a, const DenseMatrix& b, const DenseMatrix& c,
                    index_t row_begin) {
  if (b.layout() != Layout::RowMajor || c.layout() != Layout::RowMajor) {
    throw std::invalid_argument("spmm_host_parallel: B and C must be row-major");
  }
  if (b.rows() != a.cols) {
    throw std::invalid_argument("spmm_host_parallel: B must have A.cols rows");
  }
  if (c.cols() != b.cols()) {
    throw std::invalid_argument("spmm_host_parallel: C and B must have the same width");
  }
  if (row_begin < 0 || row_begin > c.rows() - a.rows) {
    throw std::invalid_argument(
        "spmm_host_parallel: C rows [row_begin, row_begin + A.rows) out of range");
  }
}

}  // namespace

void spmm_host_reference(const sparse::Csr& a, const DenseMatrix& b, DenseMatrix& c,
                         ReduceKind kind) {
  with_semiring(kind, [&]<typename R>() { spmm_host_reference<R>(a, b, c); });
}

void spmm_host_rows(const sparse::Csr& a, const value_t* b, value_t* c, index_t n,
                    ReduceKind kind) {
  with_semiring(kind, [&]<typename R>() { fold_rows(R{}, a, b, c, n); });
}

void spmm_host_parallel(const sparse::Csr& a, const DenseMatrix& b, DenseMatrix& c,
                        ReduceKind kind, index_t row_begin) {
  check_operands(a, b, c, row_begin);
  spmm_host_rows(a, b.device().data(), c.device().data() + c.offset(row_begin, 0), b.cols(),
                 kind);
}

void spmm_host_parallel(const sparse::Csr& a, const DenseMatrix& b, DenseMatrix& c,
                        const CustomReduceOp& op) {
  check_operands(a, b, c, 0);
  if (!op.init || !op.reduce) {
    throw std::invalid_argument("spmm_host_parallel: init and reduce are required");
  }
  CustomReduceOp r = op;
  if (!r.combine) r.combine = [](value_t x, value_t y) { return x * y; };
  if (!r.finalize) r.finalize = [](value_t acc, index_t) { return acc; };
  fold_rows(r, a, b.device().data(), c.device().data(), b.cols());
}

void fill_random(DenseMatrix& m, std::uint64_t seed, value_t lo, value_t hi) {
  sparse::SplitMix64 rng(seed);
  auto host = m.device().host();
  for (auto& v : host) v = rng.next_float(lo, hi);
}

}  // namespace gespmm::kernels
