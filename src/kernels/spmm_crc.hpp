#pragma once
/// \file spmm_crc.hpp
/// Algorithm 2 of the paper: SpMM with Coalesced Row Caching (CRC).
///
/// The sequential walk over the sparse row is partially unrolled by a
/// factor of warp_size: in phase one the warp loads a 32-element tile of
/// A.colInd / A.val cooperatively (lane l loads element ptr+l — a fully
/// coalesced request) into shared memory; in phase two the warp consumes
/// the tile element-by-element from shared memory while streaming B with
/// coalesced row-vector loads. Arbitrary row lengths are handled with the
/// bound checks of Algorithm 2 lines 10 and 17.

#include "gpusim/gpusim.hpp"
#include "kernels/row_block_mapping.hpp"
#include "kernels/semiring.hpp"
#include "kernels/spmm_problem.hpp"

namespace gespmm::kernels {

template <typename Reduce = SumReduce>
class SpmmCrcKernel final : public gpusim::Kernel {
 public:
  explicit SpmmCrcKernel(SpmmProblem& p)
      : p_(&p), map_(RowBlockMapping::create(p.m(), p.n(), /*cf=*/1)) {}

  gpusim::LaunchConfig config(const gpusim::DeviceSpec&) const override {
    gpusim::LaunchConfig cfg;
    cfg.grid = map_.grid();
    cfg.block = map_.block_dim;
    // sm_k (int) + sm_v (float) per thread.
    cfg.smem_bytes = static_cast<std::size_t>(map_.block_dim) *
                     (sizeof(index_t) + sizeof(value_t));
    cfg.regs_per_thread = 30;
    cfg.ilp = 1.0;
    return cfg;
  }

  std::string name() const override { return "crc(alg2)"; }

  void run_block(gpusim::BlockCtx& blk) const override {
    using namespace gpusim;
    sparse::index_t i;
    long long chunk;
    map_.decode(blk.block_id(), i, chunk);
    const long long n = map_.n;
    // An address-only C keeps no values, so the per-lane folds are skipped.
    // Control flow reads only A's structure and the launch shape: every
    // access below happens exactly as with real operands.
    const bool values = !p_->C.device().address_only();

    auto sm_k = blk.smem_alloc<index_t>(static_cast<std::size_t>(map_.block_dim));
    auto sm_v = blk.smem_alloc<value_t>(static_cast<std::size_t>(map_.block_dim));

    for (int w = 0; w < blk.num_warps(); ++w) {
      const long long j0 = map_.warp_col_base(chunk, w);
      const LaneMask mask = map_.col_mask(j0);
      if (mask == 0) continue;
      WarpCtx warp = blk.warp(w);
      const int sm_base = w * kWarpSize;
      const int lanes_in_warp = active_lanes(mask);

      const index_t lo = warp.ld_broadcast(p_->A.rowptr, i, mask);
      const index_t hi = warp.ld_broadcast(p_->A.rowptr, i + 1, mask);

      Lanes<value_t> acc = splat(Reduce::init());
      for (index_t ptr = lo; ptr < hi; ptr += lanes_in_warp) {
        // Phase 1: coalesced tile load into shared memory (lines 10-13).
        const int tile = std::min<index_t>(lanes_in_warp, hi - ptr);
        const LaneMask load_mask = first_lanes(tile);
        const Lanes<index_t> kk = warp.ld_contig(p_->A.colind, ptr, load_mask);
        const Lanes<value_t> vv = warp.ld_contig(p_->A.val, ptr, load_mask);
        for (int l = 0; l < tile; ++l) {
          sm_k[static_cast<std::size_t>(sm_base + l)] = kk[static_cast<std::size_t>(l)];
          sm_v[static_cast<std::size_t>(sm_base + l)] = vv[static_cast<std::size_t>(l)];
        }
        warp.smem_store(static_cast<std::uint64_t>(tile) * sizeof(index_t));
        warp.smem_store(static_cast<std::uint64_t>(tile) * sizeof(value_t));
        warp.sync_warp();

        // Phase 2: consume the tile; B loads stay coalesced (lines 16-21).
        for (int t = 0; t < tile; ++t) {
          const index_t k = sm_k[static_cast<std::size_t>(sm_base + t)];
          const value_t v = sm_v[static_cast<std::size_t>(sm_base + t)];
          warp.smem_load(sizeof(index_t) + sizeof(value_t));
          const Lanes<value_t> b =
              warp.ld_contig(p_->B.device(), static_cast<std::int64_t>(k) * n + j0, mask);
          if (values) fold_lanes<Reduce>(acc, v, b, mask);
          warp.count_fma(static_cast<std::uint64_t>(active_lanes(mask)));
          warp.count_inst(2);
        }
        warp.count_inst(2);  // outer tile loop
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
