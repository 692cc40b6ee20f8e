#pragma once
/// \file spmm_rowsplit.hpp
/// GraphBLAST's `rowsplit` SpMM (paper ref [2]), the strongest open-source
/// CSR baseline: one warp per sparse row, inherited from Bell & Garland's
/// SpMV. The warp loads row tiles cooperatively (coalesced) and broadcasts
/// elements to its lanes with __shfl, giving intra-warp reuse. Its two
/// weaknesses, per the paper: the sparse row is re-loaded for every
/// 32-column chunk of the output (no reuse across chunks/warps — what CWM
/// fixes in GE-SpMM), and there is no ILP coarsening.

#include "gpusim/gpusim.hpp"
#include "kernels/semiring.hpp"
#include "kernels/spmm_problem.hpp"

namespace gespmm::kernels {

template <typename Reduce = SumReduce>
class SpmmRowSplitGBKernel final : public gpusim::Kernel {
 public:
  static constexpr int kWarpsPerBlock = 4;

  explicit SpmmRowSplitGBKernel(SpmmProblem& p) : p_(&p) {}

  gpusim::LaunchConfig config(const gpusim::DeviceSpec&) const override {
    gpusim::LaunchConfig cfg;
    cfg.grid = (static_cast<long long>(p_->m()) + kWarpsPerBlock - 1) / kWarpsPerBlock;
    cfg.block = kWarpsPerBlock * gpusim::kWarpSize;
    cfg.smem_bytes = 0;
    cfg.regs_per_thread = 32;
    // The dense load's address depends on the preceding __shfl broadcast —
    // a dependency chain that limits per-warp memory-level parallelism
    // below one outstanding stream.
    cfg.ilp = 0.8;
    return cfg;
  }

  std::string name() const override { return "rowsplit(graphblast)"; }

  void run_block(gpusim::BlockCtx& blk) const override {
    using namespace gpusim;
    const long long n = p_->n();
    // No per-lane folds for an address-only C (see SpmmCrcKernel).
    const bool values = !p_->C.device().address_only();
    for (int w = 0; w < blk.num_warps(); ++w) {
      const long long i = blk.block_id() * kWarpsPerBlock + w;
      if (i >= p_->m()) break;
      WarpCtx warp = blk.warp(w);
      const index_t lo = warp.ld_broadcast(p_->A.rowptr, i, kFullMask);
      const index_t hi = warp.ld_broadcast(p_->A.rowptr, i + 1, kFullMask);

      // The warp walks every 32-column chunk of this output row; the sparse
      // row is re-fetched per chunk (GraphBLAST has no cross-chunk reuse).
      for (long long j0 = 0; j0 < n; j0 += kWarpSize) {
        const LaneMask mask = (n - j0) >= kWarpSize
                                  ? kFullMask
                                  : first_lanes(static_cast<int>(n - j0));
        Lanes<value_t> acc = splat(Reduce::init());
        for (index_t ptr = lo; ptr < hi; ptr += kWarpSize) {
          const int tile = std::min<index_t>(kWarpSize, hi - ptr);
          const LaneMask load_mask = first_lanes(tile);
          const Lanes<index_t> kk = warp.ld_contig(p_->A.colind, ptr, load_mask);
          const Lanes<value_t> vv = warp.ld_contig(p_->A.val, ptr, load_mask);
          for (int t = 0; t < tile; ++t) {
            // Intra-warp broadcast via shuffle (GraphBLAST's __shfl reuse).
            const index_t k = warp.shfl(kk, t);
            const value_t v = warp.shfl(vv, t);
            const Lanes<value_t> b = warp.ld_contig(
                p_->B.device(), static_cast<std::int64_t>(k) * n + j0, mask);
            if (values) fold_lanes<Reduce>(acc, v, b, mask);
            warp.count_fma(static_cast<std::uint64_t>(active_lanes(mask)));
            warp.count_inst(2);
          }
          warp.count_inst(2);
        }
        if (values) finalize_lanes<Reduce>(acc, hi - lo, mask);
        warp.st_contig(p_->C.device(), i * n + j0, acc, mask);
        warp.count_inst(2);
      }
    }
  }

 private:
  SpmmProblem* p_;
};

}  // namespace gespmm::kernels
