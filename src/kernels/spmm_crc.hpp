#pragma once
/// \file spmm_crc.hpp
/// Algorithms 2 and 3 of the paper: SpMM with Coalesced Row Caching (CRC)
/// and Coarse-grained Warp Merging (CWM) with coarsening factor CF. CF = 1
/// is Algorithm 2.
///
/// CRC partially unrolls the sequential walk over the sparse row by a
/// factor of warp_size: in phase one the warp loads a 32-element tile of
/// A.colInd / A.val cooperatively (lane l loads element ptr+l — a fully
/// coalesced request) into shared memory; in phase two the warp consumes
/// the tile element-by-element from shared memory while streaming B with
/// coalesced row-vector loads. Arbitrary row lengths are handled with the
/// bound checks of Algorithm 2 lines 10 and 17.
///
/// CWM merges the workloads of CF warps that would redundantly load the
/// same sparse row: each thread produces CF outputs (columns j, j+32, ...,
/// j+32*(CF-1)), so the tile is loaded once instead of CF times, and each
/// tile element issues CF independent B loads — instruction-level
/// parallelism that raises achieved bandwidth. The price is CF partial-sum
/// registers per thread and CF-fold fewer warps; the paper (Fig. 9) finds
/// CF=2 the robust optimum, which the cost model reproduces.
///
/// The kernel runs over every row of A, or over the rows listed in
/// rows[first, first + count) (the hybrid's ragged partition), where each
/// warp first loads its row id from the list with one broadcast.

#include <array>

#include "gpusim/gpusim.hpp"
#include "kernels/row_block_mapping.hpp"
#include "kernels/semiring.hpp"
#include "kernels/spmm_problem.hpp"

namespace gespmm::kernels {

template <typename Reduce = SumReduce, int CF = 1>
class SpmmCrcKernel final : public gpusim::Kernel {
  static_assert(CF >= 1 && CF <= 8);

  // The two launch constants in which Algorithm 2 and Algorithm 3 differ;
  // recorded rows depend on both. CRC's block grows to 512 threads (fig8's
  // N = 512 rows run one full-width block per row), CWM's stops at 256.
  // CWM holds CF partial sums plus CF address registers on top of CRC's 30.
  static constexpr int kMaxBlock = CF == 1 ? 512 : 256;
  static constexpr int kRegsPerThread = CF == 1 ? 30 : 30 + 5 * CF;

 public:
  /// Every row of A.
  explicit SpmmCrcKernel(SpmmProblem& p)
      : p_(&p), map_(RowBlockMapping::create(p.m(), p.n(), CF, kMaxBlock)) {}

  /// The `count` rows of A listed in rows[first, first + count).
  SpmmCrcKernel(SpmmProblem& p, const gpusim::DeviceArray<index_t>& rows, index_t first,
                index_t count)
      : p_(&p), rows_(&rows), first_(first),
        map_(RowBlockMapping::create(count, p.n(), CF, kMaxBlock)) {}

  gpusim::LaunchConfig config(const gpusim::DeviceSpec&) const override {
    gpusim::LaunchConfig cfg;
    cfg.grid = map_.grid();
    cfg.block = map_.block_dim;
    // sm_k (int) + sm_v (float) per thread.
    cfg.smem_bytes = static_cast<std::size_t>(map_.block_dim) *
                     (sizeof(index_t) + sizeof(value_t));
    cfg.regs_per_thread = kRegsPerThread;
    // Effective ILP is bounded by the column groups that actually carry
    // work: at N <= 32 the merged groups are empty and coarsening adds
    // only instruction overhead (why the adaptive dispatch of Fig. 7
    // selects plain CRC there).
    const long long groups = (map_.n + gpusim::kWarpSize - 1) / gpusim::kWarpSize;
    cfg.ilp = static_cast<double>(std::min<long long>(CF, std::max<long long>(1, groups)));
    return cfg;
  }

  std::string name() const override {
    return CF == 1 ? "crc(alg2)" : "crc+cwm(cf=" + std::to_string(CF) + ")";
  }

  void run_block(gpusim::BlockCtx& blk) const override {
    using namespace gpusim;
    sparse::index_t r;
    long long chunk;
    map_.decode(blk.block_id(), r, chunk);
    const long long n = map_.n;
    // An address-only C keeps no values, so the per-lane folds are skipped.
    // Control flow reads only A's structure and the launch shape: every
    // access below happens exactly as with real operands.
    const bool values = !p_->C.device().address_only();

    auto sm_k = blk.smem_alloc<index_t>(static_cast<std::size_t>(map_.block_dim));
    auto sm_v = blk.smem_alloc<value_t>(static_cast<std::size_t>(map_.block_dim));

    for (int w = 0; w < blk.num_warps(); ++w) {
      const long long j0 = map_.warp_col_base(chunk, w);
      // Column groups handled by this warp: j0 + 32*c + lane, c in [0, CF).
      std::array<LaneMask, CF> masks{};
      LaneMask any = 0;
      for (int c = 0; c < CF; ++c) {
        masks[static_cast<std::size_t>(c)] = map_.col_mask(j0 + 32LL * c);
        any |= masks[static_cast<std::size_t>(c)];
      }
      if (any == 0) continue;
      WarpCtx warp = blk.warp(w);
      const int sm_base = w * kWarpSize;
      const int lanes_in_warp = active_lanes(masks[0]);  // group 0 is densest

      const index_t i = rows_ ? warp.ld_broadcast(*rows_, first_ + r, any) : r;
      const index_t lo = warp.ld_broadcast(p_->A.rowptr, i, any);
      const index_t hi = warp.ld_broadcast(p_->A.rowptr, i + 1, any);

      std::array<Lanes<value_t>, CF> acc;
      for (auto& a : acc) a = splat(Reduce::init());

      for (index_t ptr = lo; ptr < hi; ptr += lanes_in_warp) {
        // Phase 1: coalesced tile load into shared memory (Alg. 2 lines 10-13).
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

        // Phase 2: consume the tile; B loads stay coalesced (Alg. 2 lines
        // 16-21), CF independent ones per element (Alg. 3 lines 7-8).
        for (int t = 0; t < tile; ++t) {
          const index_t k = sm_k[static_cast<std::size_t>(sm_base + t)];
          const value_t v = sm_v[static_cast<std::size_t>(sm_base + t)];
          warp.smem_load(sizeof(index_t) + sizeof(value_t));
          for (int c = 0; c < CF; ++c) {
            const LaneMask mc = masks[static_cast<std::size_t>(c)];
            if (mc == 0) continue;
            const Lanes<value_t> b = warp.ld_contig(
                p_->B.device(), static_cast<std::int64_t>(k) * n + j0 + 32LL * c, mc);
            if (values) fold_lanes<Reduce>(acc[static_cast<std::size_t>(c)], v, b, mc);
            warp.count_fma(static_cast<std::uint64_t>(active_lanes(mc)));
          }
          warp.count_inst(2);
        }
        warp.count_inst(2);  // outer tile loop
      }

      for (int c = 0; c < CF; ++c) {
        const LaneMask mc = masks[static_cast<std::size_t>(c)];
        if (mc == 0) continue;
        auto& a = acc[static_cast<std::size_t>(c)];
        if (values) finalize_lanes<Reduce>(a, hi - lo, mc);
        warp.st_contig(p_->C.device(), static_cast<std::int64_t>(i) * n + j0 + 32LL * c, a,
                       mc);
      }
    }
  }

 private:
  SpmmProblem* p_;
  /// Row list of the row-list form; null when the kernel covers all of A.
  const gpusim::DeviceArray<index_t>* rows_ = nullptr;
  index_t first_ = 0;
  RowBlockMapping map_;
};

}  // namespace gespmm::kernels
