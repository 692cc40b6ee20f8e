#pragma once
/// \file semiring.hpp
/// Generalized reduction operators for SpMM-like operations (paper Section
/// IV-A): an initialization value, a combine of A's value with B's element,
/// a reduce function and a finalize on the row length. The built-in
/// semirings are empty structs of static functions, inlined at compile
/// time; CustomReduceOp carries user-defined callbacks through the same
/// interface. Standard SpMM is the (0, +) instance; GraphSAGE-pool's
/// max-aggregation is the (-inf, max) instance; mean aggregation divides
/// by the row length in finalize().

#include <functional>
#include <limits>

#include "gpusim/types.hpp"
#include "sparse/csr.hpp"

namespace gespmm::kernels {

using sparse::index_t;
using sparse::value_t;

/// Runtime tag for dispatching to the compile-time semiring instances.
enum class ReduceKind { Sum, Max, Min, Mean };

inline const char* reduce_kind_name(ReduceKind k) {
  switch (k) {
    case ReduceKind::Sum: return "sum";
    case ReduceKind::Max: return "max";
    case ReduceKind::Min: return "min";
    case ReduceKind::Mean: return "mean";
  }
  return "?";
}

/// Standard SpMM: C[i,j] = sum_k A[i,k] * B[k,j].
struct SumReduce {
  static constexpr ReduceKind kind = ReduceKind::Sum;
  static value_t init() { return 0.0f; }
  static value_t combine(value_t a, value_t b) { return a * b; }
  static value_t reduce(value_t acc, value_t x) { return acc + x; }
  static value_t finalize(value_t acc, index_t /*row_nnz*/) { return acc; }
};

/// Max-pooling aggregation (GraphSAGE-pool). Empty rows yield 0.
struct MaxReduce {
  static constexpr ReduceKind kind = ReduceKind::Max;
  static value_t init() { return -std::numeric_limits<value_t>::infinity(); }
  static value_t combine(value_t a, value_t b) { return a * b; }
  static value_t reduce(value_t acc, value_t x) { return acc > x ? acc : x; }
  static value_t finalize(value_t acc, index_t row_nnz) {
    return row_nnz == 0 ? 0.0f : acc;
  }
};

/// Min-pooling. Empty rows yield 0.
struct MinReduce {
  static constexpr ReduceKind kind = ReduceKind::Min;
  static value_t init() { return std::numeric_limits<value_t>::infinity(); }
  static value_t combine(value_t a, value_t b) { return a * b; }
  static value_t reduce(value_t acc, value_t x) { return acc < x ? acc : x; }
  static value_t finalize(value_t acc, index_t row_nnz) {
    return row_nnz == 0 ? 0.0f : acc;
  }
};

/// Mean aggregation (GraphSAGE-mean): sum then divide by row degree.
struct MeanReduce {
  static constexpr ReduceKind kind = ReduceKind::Mean;
  static value_t init() { return 0.0f; }
  static value_t combine(value_t a, value_t b) { return a * b; }
  static value_t reduce(value_t acc, value_t x) { return acc + x; }
  static value_t finalize(value_t acc, index_t row_nnz) {
    return row_nnz == 0 ? 0.0f : acc / static_cast<value_t>(row_nnz);
  }
};

/// User-defined SpMM-like operation (paper Section IV-A). The host fold
/// calls the callbacks concurrently from OpenMP threads, so they must be
/// safe to call at the same time. Each output element folds its row's
/// nonzeros in CSR order, from init() through finalize(), so the result is
/// deterministic whether or not reduce is associative or commutative.
struct CustomReduceOp {
  std::function<value_t()> init;
  std::function<value_t(value_t acc, value_t x)> reduce;
  /// Called with (acc, row_nnz); defaults to identity on acc.
  std::function<value_t(value_t acc, index_t row_nnz)> finalize;
  /// Combines A's value with B's element before reduction; defaults to
  /// multiplication.
  std::function<value_t(value_t a, value_t b)> combine;
};

/// One nonzero `v` of a row folded into a warp's output columns:
/// acc[l] = reduce(acc[l], combine(v, b[l])) on every lane active in `mask`.
/// The simulated kernels' per-lane arithmetic; it adds no simulated event.
template <typename Reduce>
void fold_lanes(gpusim::Lanes<value_t>& acc, value_t v, const gpusim::Lanes<value_t>& b,
                gpusim::LaneMask mask) {
  for (int l = 0; l < gpusim::kWarpSize; ++l) {
    if (gpusim::lane_active(mask, l)) {
      const auto s = static_cast<std::size_t>(l);
      acc[s] = Reduce::reduce(acc[s], Reduce::combine(v, b[s]));
    }
  }
}

/// acc[l] = finalize(acc[l], row_nnz) on every lane active in `mask`.
template <typename Reduce>
void finalize_lanes(gpusim::Lanes<value_t>& acc, index_t row_nnz, gpusim::LaneMask mask) {
  for (int l = 0; l < gpusim::kWarpSize; ++l) {
    if (gpusim::lane_active(mask, l)) {
      const auto s = static_cast<std::size_t>(l);
      acc[s] = Reduce::finalize(acc[s], row_nnz);
    }
  }
}

/// Dispatch a callable templated on the semiring type over a runtime kind:
/// `with_semiring(kind, [&]<typename R>() { ... });`
template <typename F>
decltype(auto) with_semiring(ReduceKind kind, F&& f) {
  switch (kind) {
    case ReduceKind::Sum: return f.template operator()<SumReduce>();
    case ReduceKind::Max: return f.template operator()<MaxReduce>();
    case ReduceKind::Min: return f.template operator()<MinReduce>();
    case ReduceKind::Mean: return f.template operator()<MeanReduce>();
  }
  return f.template operator()<SumReduce>();
}

}  // namespace gespmm::kernels
