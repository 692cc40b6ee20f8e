#pragma once
/// \file shard.hpp
/// Row partitioning of a registered CSR across a device group — the
/// cluster story for graphs too large for one simulated device.
///
/// A shard owns a contiguous row range of the operand: SpMM is
/// row-parallel, so each shard computes its own slice of C = A @ B
/// independently and bitwise identically to the unsharded kernel (the
/// same per-row accumulation order runs, just on a different device).
/// The planner balances shards by *nnz*, not by row count — SpMM cost is
/// proportional to edges, and a skewed graph split by rows alone would
/// leave one device with most of the work.
///
/// What sharding is NOT free of is the dense operand: a shard's rows
/// reference B rows owned by other shards under the matching row
/// partition of B. Those are the shard's *halo columns* — the distinct
/// colind values outside its own row range — and at execution time each
/// shard pays a modelled gather of `halo_cols * n * sizeof(value_t)`
/// bytes over the configured interconnect before its kernel can run.
/// The gather/merge stage is where near-linear scaling is won or lost:
/// compute splits S ways, halo traffic does not.
///
/// Planning is deterministic (pure function of the CSR and the shard
/// count) and happens once at `register_graph`; every shard carries its
/// own fingerprint so per-shard plans get distinct plan-cache identities.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/fingerprint.hpp"

namespace gespmm::serve {

using sparse::value_t;

/// One contiguous row slice of a partitioned operand.
struct GraphShard {
  /// Shard position in the plan (== the device index it executes on).
  int index = 0;
  /// Owned half-open row range [row_begin, row_end) of the full operand.
  index_t row_begin = 0;
  index_t row_end = 0;
  /// The slice as a standalone CSR: `row_end - row_begin` rows, the full
  /// operand's column count, rowptr rebased to start at 0. Running the
  /// host kernel on it reproduces rows [row_begin, row_end) of the
  /// unsharded output bitwise.
  Csr csr;
  /// Fingerprint of the slice — the shard's own plan-cache identity.
  GraphFingerprint fp;
  /// fp.key() (cached).
  std::uint64_t key = 0;
  /// Distinct colind values outside [row_begin, row_end): the B rows this
  /// shard must gather from peers before its SpMM can run.
  index_t halo_cols = 0;

  index_t rows() const { return row_end - row_begin; }
  index_t nnz() const { return csr.nnz(); }
};

/// A full row partition of one registered operand.
struct ShardPlan {
  /// Shards in row order; concatenating their row ranges covers
  /// [0, rows) exactly once.
  std::vector<GraphShard> shards;

  int num_shards() const { return static_cast<int>(shards.size()); }
  /// Largest single-shard CSR footprint (the per-device residency cost).
  std::size_t max_shard_bytes() const;
};

/// Device-resident footprint of a CSR operand: rowptr + colind + val.
std::size_t csr_bytes(const Csr& a);

/// Build a GraphShard around an already-materialized row slice of some
/// operand: computes the halo count, fingerprint and plan-cache key for
/// `slice`, which must cover rows [row_begin, row_end) rebased to start
/// at 0 (the GraphShard::csr layout). This is the dynamic-update path's
/// shard rebuild: `Engine::apply_update` re-slices only the shards whose
/// row ranges an edge batch touched (via DeltaOverlay::materialize_rows)
/// while the partition boundaries stay fixed between compactions.
GraphShard make_shard_from_slice(Csr slice, int index, index_t row_begin,
                                 index_t row_end);

/// Row-partition `a` into `num_shards` contiguous, nnz-balanced slices.
/// Greedy walk: each shard closes once it holds its proportional share of
/// the remaining nnz, while always leaving at least one row per remaining
/// shard. Throws std::invalid_argument when `num_shards < 1` or
/// `num_shards > a.rows`. Deterministic; `a` must already be validated.
ShardPlan plan_shards(const Csr& a, int num_shards);

}  // namespace gespmm::serve
