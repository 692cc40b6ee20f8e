#pragma once
/// \file spmm_naive.hpp
/// Algorithm 1 of the paper: the simple parallel CSR SpMM. Rows map to
/// blocks and output columns to threads, so access to the dense matrix B is
/// coalesced — but every thread of a warp walks the sparse row serially,
/// loading A.colInd[ptr] / A.val[ptr] as warp-wide *broadcasts*: one 32-byte
/// transaction per element per warp of which only 4 bytes are useful. This
/// is the inefficiency Coalesced Row Caching removes.

#include "gpusim/gpusim.hpp"
#include "kernels/row_block_mapping.hpp"
#include "kernels/semiring.hpp"
#include "kernels/spmm_problem.hpp"

namespace gespmm::kernels {

template <typename Reduce = SumReduce>
class SpmmNaiveKernel final : public gpusim::Kernel {
 public:
  explicit SpmmNaiveKernel(SpmmProblem& p)
      : p_(&p), map_(RowBlockMapping::create(p.m(), p.n(), /*cf=*/1)) {}

  gpusim::LaunchConfig config(const gpusim::DeviceSpec&) const override {
    gpusim::LaunchConfig cfg;
    cfg.grid = map_.grid();
    cfg.block = map_.block_dim;
    cfg.smem_bytes = 0;
    cfg.regs_per_thread = 24;
    cfg.ilp = 1.0;
    return cfg;
  }

  std::string name() const override { return "naive(alg1)"; }

  void run_block(gpusim::BlockCtx& blk) const override {
    using namespace gpusim;
    sparse::index_t i;
    long long chunk;
    map_.decode(blk.block_id(), i, chunk);
    const long long n = map_.n;
    // No per-lane folds for an address-only C (see SpmmCrcKernel).
    const bool values = !p_->C.device().address_only();

    for (int w = 0; w < blk.num_warps(); ++w) {
      const long long j0 = map_.warp_col_base(chunk, w);
      const LaneMask mask = map_.col_mask(j0);
      if (mask == 0) continue;
      WarpCtx warp = blk.warp(w);

      // Every thread reads the row bounds (warp-wide broadcast loads).
      const index_t lo = warp.ld_broadcast(p_->A.rowptr, i, mask);
      const index_t hi = warp.ld_broadcast(p_->A.rowptr, i + 1, mask);

      Lanes<value_t> acc = splat(Reduce::init());
      for (index_t ptr = lo; ptr < hi; ++ptr) {
        const index_t k = warp.ld_broadcast(p_->A.colind, ptr, mask);
        const value_t v = warp.ld_broadcast(p_->A.val, ptr, mask);
        const Lanes<value_t> b =
            warp.ld_contig(p_->B.device(), static_cast<std::int64_t>(k) * n + j0, mask);
        if (values) fold_lanes<Reduce>(acc, v, b, mask);
        warp.count_fma(static_cast<std::uint64_t>(active_lanes(mask)));
        warp.count_inst(2);  // loop bound check + pointer increment
      }
      if (values) finalize_lanes<Reduce>(acc, hi - lo, mask);
      warp.st_contig(p_->C.device(), static_cast<std::int64_t>(i) * n + j0, acc, mask);
    }
  }

 private:
  SpmmProblem* p_;
  RowBlockMapping map_;
};

}  // namespace gespmm::kernels
