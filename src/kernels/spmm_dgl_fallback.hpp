#pragma once
/// \file spmm_dgl_fallback.hpp
/// DGL's own SpMM-like fallback kernel (paper Sections I, II-C and V-F):
/// cuSPARSE provides no custom-reduction SpMM, so DGL falls back to its
/// generic message/reduce kernel. The mapping parallelizes (node, feature)
/// pairs like Algorithm 1, so dense loads are coalesced, but the kernel is
/// generic: every edge pays an *edge-id indirection* (DGL addresses edge
/// data through an edge-index array), the per-edge combine goes through a
/// functor dispatch (extra instructions), and there is no sparse-row
/// caching or warp merging. The result is the 8.8%-139.1% loss vs csrmm2
/// of Table II and the 2.39x-6.15x gap to GE-SpMM-like of Table IX.

#include "gpusim/gpusim.hpp"
#include "kernels/row_block_mapping.hpp"
#include "kernels/semiring.hpp"
#include "kernels/spmm_problem.hpp"

namespace gespmm::kernels {

template <typename Reduce = MaxReduce>
class SpmmDglFallbackKernel final : public gpusim::Kernel {
 public:
  explicit SpmmDglFallbackKernel(SpmmProblem& p)
      : p_(&p), map_(RowBlockMapping::create(p.m(), p.n(), /*cf=*/1)) {
    // DGL's COO-style edge-id indirection: edge data is addressed through
    // an index array (identity here, as after CSR conversion).
    std::vector<index_t> ids(static_cast<std::size_t>(p.A.nnz()));
    for (index_t e = 0; e < p.A.nnz(); ++e) ids[static_cast<std::size_t>(e)] = e;
    edge_ids_ = gpusim::DeviceArray<index_t>(std::span<const index_t>(ids));
  }

  gpusim::LaunchConfig config(const gpusim::DeviceSpec&) const override {
    gpusim::LaunchConfig cfg;
    cfg.grid = map_.grid();
    cfg.block = map_.block_dim;
    cfg.regs_per_thread = 36;  // generic functor state
    cfg.ilp = 1.0;
    return cfg;
  }

  std::string name() const override { return "dgl-fallback(spmm-like)"; }

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

      const index_t lo = warp.ld_broadcast(p_->A.rowptr, i, mask);
      const index_t hi = warp.ld_broadcast(p_->A.rowptr, i + 1, mask);
      const std::int64_t c_base = static_cast<std::int64_t>(i) * n + j0;

      // The generic reduce functor cannot be accumulated in registers (it
      // is type-erased), so the kernel read-modify-writes the output in
      // global memory for every edge — the costliest habit of the fallback.
      warp.st_contig(p_->C.device(), c_base, splat(Reduce::init()), mask);
      for (index_t ptr = lo; ptr < hi; ++ptr) {
        // Edge-id indirection, then neighbour id, then edge value — three
        // dependent broadcast loads per edge.
        const index_t eid = warp.ld_broadcast(edge_ids_, ptr, mask);
        const index_t k = warp.ld_broadcast(p_->A.colind, eid, mask);
        const value_t v = warp.ld_broadcast(p_->A.val, eid, mask);
        const Lanes<value_t> b =
            warp.ld_contig(p_->B.device(), static_cast<std::int64_t>(k) * n + j0, mask);
        Lanes<value_t> cur = warp.ld_contig(p_->C.device(), c_base, mask);
        if (values) fold_lanes<Reduce>(cur, v, b, mask);
        warp.st_contig(p_->C.device(), c_base, cur, mask);
        warp.count_fma(static_cast<std::uint64_t>(active_lanes(mask)));
        // Functor dispatch + bounds checks of the generic message kernel.
        warp.count_inst(8);
      }
      // Finalize pass (degree normalization for mean, identity otherwise).
      Lanes<value_t> fin = warp.ld_contig(p_->C.device(), c_base, mask);
      if (values) finalize_lanes<Reduce>(fin, hi - lo, mask);
      warp.st_contig(p_->C.device(), c_base, fin, mask);
    }
  }

 private:
  SpmmProblem* p_;
  RowBlockMapping map_;
  gpusim::DeviceArray<index_t> edge_ids_;
};

}  // namespace gespmm::kernels
