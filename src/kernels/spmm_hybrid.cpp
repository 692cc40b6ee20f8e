#include "kernels/spmm_hybrid.hpp"

#include <algorithm>
#include <cstdint>

#include "gpusim/gpusim.hpp"
#include "kernels/semiring.hpp"
#include "kernels/spmm_crc.hpp"

namespace gespmm::kernels {

HybridPartition partition_rows_by_density(std::span<const index_t> rowptr,
                                          index_t threshold) {
  HybridPartition part;
  part.threshold = threshold;
  part.rows = rowptr.empty() ? 0 : static_cast<index_t>(rowptr.size() - 1);
  part.perm.reserve(static_cast<std::size_t>(part.rows));
  for (index_t i = 0; i < part.rows; ++i) {
    const index_t nnz = rowptr[static_cast<std::size_t>(i) + 1] -
                        rowptr[static_cast<std::size_t>(i)];
    if (nnz >= threshold) part.perm.push_back(i);
  }
  part.dense_rows = static_cast<index_t>(part.perm.size());
  for (index_t i = 0; i < part.rows; ++i) {
    const index_t nnz = rowptr[static_cast<std::size_t>(i) + 1] -
                        rowptr[static_cast<std::size_t>(i)];
    if (nnz < threshold) part.perm.push_back(i);
  }
  return part;
}

HybridPartition partition_rows_by_density(const sparse::Csr& a, index_t threshold) {
  return partition_rows_by_density(std::span<const index_t>(a.rowptr), threshold);
}

HybridPartitionStats hybrid_partition_stats(std::span<const index_t> rowptr,
                                            index_t threshold) {
  HybridPartitionStats st;
  const index_t rows = rowptr.empty() ? 0 : static_cast<index_t>(rowptr.size() - 1);
  if (rows == 0) return st;
  index_t dense_rows = 0;
  std::int64_t dense_nnz = 0;
  for (index_t i = 0; i < rows; ++i) {
    const index_t nnz = rowptr[static_cast<std::size_t>(i) + 1] -
                        rowptr[static_cast<std::size_t>(i)];
    if (nnz >= threshold) {
      ++dense_rows;
      dense_nnz += nnz;
    }
  }
  const std::int64_t total_nnz = rowptr[static_cast<std::size_t>(rows)] - rowptr[0];
  st.dense_row_frac = static_cast<double>(dense_rows) / static_cast<double>(rows);
  st.dense_nnz_frac = total_nnz == 0 ? 0.0
                                     : static_cast<double>(dense_nnz) /
                                           static_cast<double>(total_nnz);
  return st;
}

HybridPartitionStats hybrid_partition_stats(const sparse::Csr& a, index_t threshold) {
  return hybrid_partition_stats(std::span<const index_t>(a.rowptr), threshold);
}

namespace {

/// Dense-partition sub-kernel: one block per tile.m-row window, up to four
/// warps per block each sweeping 32-column chunks of B. The block stages the
/// window's sparse rows once (cooperative coalesced loads, charged on warp
/// 0), takes the column union as the shared B working set, and each warp
/// streams the union's B rows for its chunk in tile.k-slices feeding
/// warp-level mma issues. Values are folded in CSR storage order per row
/// (bitwise identical to the reference); the mma issues are the accounting
/// for the tile math, padding included.
template <typename Reduce>
class SpmmHybridDenseKernel final : public gpusim::Kernel {
 public:
  SpmmHybridDenseKernel(SpmmProblem& p, const gpusim::DeviceArray<index_t>& perm,
                        index_t dense_rows, gpusim::MmaTileSpec tile)
      : p_(&p), perm_(&perm), dense_rows_(dense_rows), tile_(tile) {
    col_chunks_ = (static_cast<long long>(p.n()) + gpusim::kWarpSize - 1) /
                  gpusim::kWarpSize;
    windows_ = (static_cast<long long>(dense_rows) + tile.m - 1) / tile.m;
    warps_ = static_cast<int>(std::min<long long>(col_chunks_, 4));
  }

  gpusim::LaunchConfig config(const gpusim::DeviceSpec&) const override {
    gpusim::LaunchConfig cfg;
    cfg.grid = windows_;
    cfg.block = warps_ * gpusim::kWarpSize;
    // Per-warp B-fragment slice staging + one shared A-slice (indices and
    // values) for the whole block.
    cfg.smem_bytes =
        static_cast<std::size_t>(warps_) * static_cast<std::size_t>(tile_.k) *
            gpusim::kWarpSize * sizeof(value_t) +
        static_cast<std::size_t>(tile_.m) * static_cast<std::size_t>(tile_.k) *
            (sizeof(index_t) + sizeof(value_t));
    // Fragments are register-held: the MMA path pays register pressure.
    cfg.regs_per_thread = 56;
    // B slices are double-buffered against the mma issues (stage s+1 loads
    // while slice s drains the pipe), so each warp keeps two independent
    // load streams in flight — same declaration contract as CWM's CF=2.
    cfg.ilp = 2.0;
    return cfg;
  }

  std::string name() const override { return "hybrid-mma(dense)"; }

  void run_block(gpusim::BlockCtx& blk) const override {
    using namespace gpusim;
    const long long wnd = blk.block_id();
    const long long n = p_->n();
    // An address-only C keeps no values: A's values are not staged, B rows
    // are not kept and the row folds are skipped. The column union is
    // addresses, so it is built either way, and every access happens
    // exactly as with real operands.
    const bool values = !p_->C.device().address_only();
    WarpCtx warp0 = blk.warp(0);

    const index_t r0 = static_cast<index_t>(wnd) * tile_.m;
    const int wrows = static_cast<int>(
        std::min<long long>(tile_.m, static_cast<long long>(dense_rows_) - r0));
    const LaneMask row_mask = first_lanes(wrows);

    // Window row ids: the permutation is contiguous, so this is coalesced.
    const Lanes<index_t> rows_l = warp0.ld_contig(*perm_, r0, row_mask);
    Lanes<std::int64_t> plo{}, phi{};
    for (int r = 0; r < wrows; ++r) {
      plo[static_cast<std::size_t>(r)] = rows_l[static_cast<std::size_t>(r)];
      phi[static_cast<std::size_t>(r)] = rows_l[static_cast<std::size_t>(r)] + 1;
    }
    const Lanes<index_t> lo = warp0.ld_gather(p_->A.rowptr, plo, row_mask);
    const Lanes<index_t> hi = warp0.ld_gather(p_->A.rowptr, phi, row_mask);

    // Stage the window's sparse rows once per block: cooperative coalesced
    // colind/val tile loads, the A-fragment build charged as shared-memory
    // stores. Every warp then reuses the staged window across its chunks.
    std::vector<std::vector<index_t>> cols(static_cast<std::size_t>(wrows));
    std::vector<std::vector<value_t>> vals(values ? static_cast<std::size_t>(wrows) : 0);
    for (int r = 0; r < wrows; ++r) {
      const index_t rlo = lo[static_cast<std::size_t>(r)];
      const index_t rhi = hi[static_cast<std::size_t>(r)];
      for (index_t ptr = rlo; ptr < rhi; ptr += kWarpSize) {
        const int tile = static_cast<int>(
            std::min<index_t>(kWarpSize, rhi - ptr));
        const LaneMask lm = first_lanes(tile);
        const Lanes<index_t> kk = warp0.ld_contig(p_->A.colind, ptr, lm);
        const Lanes<value_t> vv = warp0.ld_contig(p_->A.val, ptr, lm);
        auto& cr = cols[static_cast<std::size_t>(r)];
        cr.insert(cr.end(), kk.begin(), kk.begin() + tile);
        if (values) {
          auto& vr = vals[static_cast<std::size_t>(r)];
          vr.insert(vr.end(), vv.begin(), vv.begin() + tile);
        }
        warp0.smem_store(static_cast<std::uint64_t>(tile) *
                         (sizeof(index_t) + sizeof(value_t)));
      }
      warp0.count_inst(2);
    }

    // Column union across the window (sorted): the shared B working set.
    std::vector<index_t> uni;
    for (const auto& cr : cols) uni.insert(uni.end(), cr.begin(), cr.end());
    std::sort(uni.begin(), uni.end());
    uni.erase(std::unique(uni.begin(), uni.end()), uni.end());

    std::vector<Lanes<value_t>> bstage(values ? uni.size() : 0);
    for (int w = 0; w < blk.num_warps(); ++w) {
      WarpCtx warp = blk.warp(w);
      for (long long chunk = w; chunk < col_chunks_; chunk += blk.num_warps()) {
        const long long j0 = chunk * kWarpSize;
        const long long remaining = n - j0;
        const LaneMask mask = remaining >= kWarpSize
                                  ? kFullMask
                                  : first_lanes(static_cast<int>(remaining));
        if (mask == 0) continue;

        // Stream B once per union column, in tile.k-slices; each slice
        // feeds ceil(active_cols / tile.n) mma issues.
        const int issues_per_slice =
            (active_lanes(mask) + tile_.n - 1) / tile_.n;
        for (std::size_t u0 = 0; u0 < uni.size();
             u0 += static_cast<std::size_t>(tile_.k)) {
          const std::size_t slice = std::min<std::size_t>(
              static_cast<std::size_t>(tile_.k), uni.size() - u0);
          for (std::size_t s = 0; s < slice; ++s) {
            const Lanes<value_t> b = warp.ld_contig(
                p_->B.device(), static_cast<std::int64_t>(uni[u0 + s]) * n + j0, mask);
            if (values) bstage[u0 + s] = b;
            warp.smem_store(static_cast<std::uint64_t>(active_lanes(mask)) *
                            sizeof(value_t));
          }
          for (int q = 0; q < issues_per_slice; ++q) {
            warp.mma_tile(tile_.m, tile_.n, tile_.k);
            // Both fragments re-read from shared memory per issue.
            warp.smem_load(static_cast<std::uint64_t>(tile_.m + tile_.n) *
                           static_cast<std::uint64_t>(tile_.k) * sizeof(value_t));
          }
          warp.count_inst(2);
        }

        // Real math: fold each row's nonzeros in CSR storage order against
        // the staged B-rows. The arithmetic itself was charged via mma_tile
        // above.
        for (int r = 0; r < wrows; ++r) {
          Lanes<value_t> acc = splat(Reduce::init());
          if (values) {
            const auto& cr = cols[static_cast<std::size_t>(r)];
            const auto& vr = vals[static_cast<std::size_t>(r)];
            for (std::size_t t = 0; t < cr.size(); ++t) {
              const std::size_t s = static_cast<std::size_t>(
                  std::lower_bound(uni.begin(), uni.end(), cr[t]) - uni.begin());
              fold_lanes<Reduce>(acc, vr[t], bstage[s], mask);
            }
            finalize_lanes<Reduce>(
                acc, hi[static_cast<std::size_t>(r)] - lo[static_cast<std::size_t>(r)], mask);
          }
          warp.st_contig(
              p_->C.device(),
              static_cast<std::int64_t>(rows_l[static_cast<std::size_t>(r)]) * n + j0,
              acc, mask);
        }
      }
    }
  }

 private:
  SpmmProblem* p_;
  const gpusim::DeviceArray<index_t>* perm_;
  index_t dense_rows_;
  gpusim::MmaTileSpec tile_;
  long long col_chunks_ = 1;
  long long windows_ = 0;
  int warps_ = 1;
};

}  // namespace

HybridLaunchResult run_spmm_hybrid_detailed(SpmmProblem& p, const SpmmRunOptions& opt) {
  const gpusim::MmaTileSpec tile = gpusim::mma_tile_for(opt.device);
  const HybridPartition part =
      partition_rows_by_density(p.A.rowptr.host(), static_cast<index_t>(tile.k));
  const gpusim::DeviceArray<index_t> perm{std::span<const index_t>(part.perm)};

  HybridLaunchResult out;
  out.dense_rows = part.dense_rows;
  out.threshold = part.threshold;
  std::vector<gpusim::LaunchResult> launches;
  if (part.dense_rows > 0) {
    launches.push_back(with_semiring(opt.reduce, [&]<typename R>() {
      SpmmHybridDenseKernel<R> k(p, perm, part.dense_rows, tile);
      return gpusim::launch(opt.device, k, opt.sample);
    }));
    out.dense_ms = launches.back().time_ms();
  }
  if (part.ragged_rows() > 0) {
    launches.push_back(with_semiring(opt.reduce, [&]<typename R>() {
      SpmmCrcKernel<R> k(p, perm, part.dense_rows, part.ragged_rows());
      return gpusim::launch(opt.device, k, opt.sample);
    }));
    out.ragged_ms = launches.back().time_ms();
  }
  out.total = gpusim::compose(launches);
  out.total.kernel_name = "hybrid(mma+simt)";
  return out;
}

gpusim::LaunchResult run_spmm_hybrid(SpmmProblem& p, const SpmmRunOptions& opt) {
  return run_spmm_hybrid_detailed(p, opt).total;
}

}  // namespace gespmm::kernels
