#pragma once
/// \file spmm_hybrid.hpp
/// Density-partitioned hybrid SpMM (HC-SpMM-style): rows with at least
/// `threshold` nonzeros are routed to the tensor-core (MMA) pipeline, the
/// remaining ragged rows to the CUDA-core (SIMT) pipeline, as two launches
/// over a row permutation that groups each partition contiguously. The
/// ragged launch is CRC (SpmmCrcKernel, spmm_crc.hpp) over the
/// permutation's ragged slice.
///
/// The threshold is the MMA tile K-dim (gpusim::MmaTileSpec::k): a row with
/// >= k nonzeros fills at least one A-fragment row slice, so the dense pipe
/// wastes little of the tile on zero padding. The dense sub-kernel processes
/// tile.m-row windows of the dense partition: it stages the window's sparse
/// rows and the B-rows of their column union through shared memory and
/// issues warp-level mma tiles over k-slices of the union, so column overlap
/// within a window (block-structured matrices) directly reduces B traffic —
/// the effect that makes hybrid win on pruned-DNN-style inputs and lose on
/// scattered uniform ones, where the union is as long as the nnz list.
///
/// Both sub-kernels fold each row's nonzeros in CSR storage order, so the
/// composed output is bitwise identical to the reference for every
/// reduction (Sum/Max pinned by tests).

#include <span>
#include <vector>

#include "gpusim/launch.hpp"
#include "gpusim/mma.hpp"
#include "kernels/registry.hpp"
#include "kernels/spmm_problem.hpp"

namespace gespmm::kernels {

/// Row partition of a CSR operand by nnz-per-row density.
struct HybridPartition {
  /// Row permutation: dense rows first (original order preserved), then
  /// ragged rows (original order preserved). perm[i] is an original row id.
  std::vector<index_t> perm;
  /// Number of rows with nnz >= threshold (the dense partition size).
  index_t dense_rows = 0;
  /// nnz-per-row cut applied (the MMA tile K-dim in production).
  index_t threshold = 0;
  index_t rows = 0;

  index_t ragged_rows() const { return rows - dense_rows; }
};

/// Partition rows by density from a CSR rowptr (size rows+1). Stable within
/// each partition. Deterministic.
HybridPartition partition_rows_by_density(std::span<const index_t> rowptr,
                                          index_t threshold);
HybridPartition partition_rows_by_density(const sparse::Csr& a, index_t threshold);

/// Cheap partition summary used as learned plan-selection features.
struct HybridPartitionStats {
  /// Fraction of rows routed to the dense (MMA) partition.
  double dense_row_frac = 0.0;
  /// Fraction of nnz mass held by the dense partition (histogram mass at or
  /// above the MMA threshold).
  double dense_nnz_frac = 0.0;
};

HybridPartitionStats hybrid_partition_stats(std::span<const index_t> rowptr,
                                            index_t threshold);
HybridPartitionStats hybrid_partition_stats(const sparse::Csr& a, index_t threshold);

/// Result of a hybrid run with per-partition modelled times exposed, so the
/// plan layer can price each partition step separately.
struct HybridLaunchResult {
  /// The two launches composed by gpusim::compose: metrics and time terms
  /// summed, config/occupancy/bottleneck of the slower launch.
  gpusim::LaunchResult total;
  /// Modelled time of the dense-partition (MMA pipe) launch; 0 when the
  /// partition is empty and the launch was skipped.
  double dense_ms = 0.0;
  /// Modelled time of the ragged-partition (SIMT pipe) launch; 0 when empty.
  double ragged_ms = 0.0;
  index_t dense_rows = 0;
  index_t threshold = 0;
};

/// Run hybrid SpMM on `p` (both partitions; either launch is skipped when
/// its partition is empty). C is written bitwise identically to the
/// reference row fold. Supports all reductions.
HybridLaunchResult run_spmm_hybrid_detailed(SpmmProblem& p,
                                            const SpmmRunOptions& opt = SpmmRunOptions());

/// Registry-shaped wrapper returning only the composed launch result.
gpusim::LaunchResult run_spmm_hybrid(SpmmProblem& p,
                                     const SpmmRunOptions& opt = SpmmRunOptions());

}  // namespace gespmm::kernels
