#pragma once
/// \file warp.hpp
/// BlockCtx / WarpCtx: the execution context simulated kernels are written
/// against.
///
/// A kernel implements `run_block(BlockCtx&)` and expresses SIMT code
/// warp-synchronously: per-lane values live in `Lanes<T>` vectors, activity
/// masks express divergence, and all global memory traffic flows through
/// WarpCtx::ld_*/st_* so that values move for real *and* every instruction
/// is coalesced, cache-filtered and counted. Values move for every operand
/// except an address-only one (device_array.hpp): there the instruction is
/// coalesced, cached and counted exactly the same, loads return zero lanes
/// and stores are discarded. Kernels never branch on dense B/C values, so
/// a launch's metrics and modelled time do not depend on them.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/coalesce.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_array.hpp"
#include "gpusim/metrics.hpp"
#include "gpusim/types.hpp"

namespace gespmm::gpusim {

/// Per-simulation-thread mutable state shared by consecutive blocks: metric
/// counters, cache models and the shared-memory arena. Owned by the launch
/// engine; kernels never see it directly.
struct BlockRuntime {
  const DeviceSpec* dev = nullptr;
  LaunchMetrics metrics;
  SectorCache l1;
  SectorCache l2;
  std::vector<std::byte> smem;
  std::size_t smem_used = 0;
  /// Sequential validation mode: keep L2 contents across blocks (the
  /// shared-L2 exactness check of launch_sequential_shared_l2).
  bool keep_l2_warm = false;

  void configure(const DeviceSpec& d, const LaunchConfig& cfg) {
    dev = &d;
    // Pascal: global loads bypass L1 entirely -> zero-line cache.
    l1.configure(d.unified_l1 ? d.l1_bytes / static_cast<std::size_t>(d.line_bytes) : 0);
    // The shared L2 is modelled as a per-block slice (see DESIGN.md): a
    // block competes with the other resident blocks for L2 capacity.
    const std::size_t resident_hint =
        static_cast<std::size_t>(std::max(1, d.num_sms * 2));
    l2.configure(d.l2_bytes / static_cast<std::size_t>(d.line_bytes) / resident_hint);
    smem.assign(cfg.smem_bytes, std::byte{0});
  }

  void begin_block() {
    l1.new_epoch();
    if (!keep_l2_warm) l2.new_epoch();
    smem_used = 0;
  }

  /// Route one load transaction through the cache hierarchy.
  void load_transaction(std::uint64_t segment_addr) {
    ++metrics.gld_transactions;
    if (l1.enabled() && l1.access(segment_addr)) {
      ++metrics.l1_hits;
      return;
    }
    if (l2.access(segment_addr)) {
      ++metrics.l2_hits;
      return;
    }
    ++metrics.dram_transactions;
  }

  /// Stores are write-through for accounting: they consume DRAM write
  /// bandwidth and install the line in L2 (read-after-write hits).
  void store_transaction(std::uint64_t segment_addr) {
    ++metrics.gst_transactions;
    ++metrics.dram_transactions;
    l2.access(segment_addr);
    if (l1.enabled()) l1.access(segment_addr);
  }
};

class BlockCtx;

/// Warp-level view: all SIMT instructions are issued through this class.
class WarpCtx {
 public:
  WarpCtx(BlockRuntime& rt, long long block_id, int warp_in_block)
      : rt_(&rt), block_id_(block_id), warp_in_block_(warp_in_block) {}

  long long block_id() const { return block_id_; }
  int warp_in_block() const { return warp_in_block_; }

  // --- Global memory: loads ---

  /// Lane l (active in `mask`) loads a[base_idx + l].
  template <typename T>
  Lanes<T> ld_contig(const DeviceArray<T>& a, std::int64_t base_idx, LaneMask mask) {
    note_load_inst();
    const auto r = coalesce_contiguous(
        a.base_addr() + static_cast<std::uint64_t>(base_idx) * sizeof(T), sizeof(T), mask);
    commit_load(r);
    Lanes<T> out{};
    if (a.address_only()) return out;
    for (int l = 0; l < kWarpSize; ++l) {
      if (lane_active(mask, l)) {
        assert(base_idx + l >= 0 && static_cast<std::size_t>(base_idx + l) < a.size());
        out[static_cast<std::size_t>(l)] = a[static_cast<std::size_t>(base_idx + l)];
      }
    }
    return out;
  }

  /// All active lanes load the same element (the uncoalesced broadcast
  /// pattern of Algorithm 1). Returns the scalar.
  template <typename T>
  T ld_broadcast(const DeviceArray<T>& a, std::int64_t idx, LaneMask mask) {
    note_load_inst();
    assert(idx >= 0 && static_cast<std::size_t>(idx) < a.size());
    const auto r = coalesce_broadcast(
        a.base_addr() + static_cast<std::uint64_t>(idx) * sizeof(T), sizeof(T), mask);
    commit_load(r);
    return a.address_only() ? T{} : a[static_cast<std::size_t>(idx)];
  }

  /// Arbitrary per-lane indices.
  template <typename T>
  Lanes<T> ld_gather(const DeviceArray<T>& a, const Lanes<std::int64_t>& idx, LaneMask mask) {
    note_load_inst();
    const bool values = !a.address_only();
    Lanes<std::uint64_t> addrs{};
    Lanes<T> out{};
    for (int l = 0; l < kWarpSize; ++l) {
      if (!lane_active(mask, l)) continue;
      const auto i = idx[static_cast<std::size_t>(l)];
      assert(i >= 0 && static_cast<std::size_t>(i) < a.size());
      addrs[static_cast<std::size_t>(l)] =
          a.base_addr() + static_cast<std::uint64_t>(i) * sizeof(T);
      if (values) out[static_cast<std::size_t>(l)] = a[static_cast<std::size_t>(i)];
    }
    const auto r = coalesce_gather(addrs, sizeof(T), mask);
    commit_load(r);
    return out;
  }

  // --- Global memory: stores ---

  template <typename T>
  void st_contig(DeviceArray<T>& a, std::int64_t base_idx, const Lanes<T>& v, LaneMask mask) {
    note_store_inst();
    const auto r = coalesce_contiguous(
        a.base_addr() + static_cast<std::uint64_t>(base_idx) * sizeof(T), sizeof(T), mask);
    commit_store(r);
    if (a.address_only()) return;
    for (int l = 0; l < kWarpSize; ++l) {
      if (lane_active(mask, l)) {
        assert(base_idx + l >= 0 && static_cast<std::size_t>(base_idx + l) < a.size());
        a[static_cast<std::size_t>(base_idx + l)] = v[static_cast<std::size_t>(l)];
      }
    }
  }

  template <typename T>
  void st_gather(DeviceArray<T>& a, const Lanes<std::int64_t>& idx, const Lanes<T>& v,
                 LaneMask mask) {
    note_store_inst();
    const bool values = !a.address_only();
    Lanes<std::uint64_t> addrs{};
    for (int l = 0; l < kWarpSize; ++l) {
      if (!lane_active(mask, l)) continue;
      const auto i = idx[static_cast<std::size_t>(l)];
      assert(i >= 0 && static_cast<std::size_t>(i) < a.size());
      addrs[static_cast<std::size_t>(l)] =
          a.base_addr() + static_cast<std::uint64_t>(i) * sizeof(T);
      if (values) a[static_cast<std::size_t>(i)] = v[static_cast<std::size_t>(l)];
    }
    const auto r = coalesce_gather(addrs, sizeof(T), mask);
    commit_store(r);
  }

  /// Commit a pre-computed coalescing result through the store path. Used
  /// by kernels that stage stores through shared memory (the burst pattern
  /// is known) while moving the real values separately: csrmm2's transposed
  /// store, the one host write outside WarpCtx, which must itself skip an
  /// address-only output.
  void st_accounting(const CoalesceResult& r) {
    note_store_inst();
    commit_store(r);
  }

  /// Atomic read-modify-write scatter (GunRock-style accumulation): costs a
  /// load plus a store transaction per distinct segment, plus replay
  /// instructions proportional to address conflicts within the warp.
  void atomic_add_gather(DeviceArray<float>& a, const Lanes<std::int64_t>& idx,
                         const Lanes<float>& v, LaneMask mask) {
    note_load_inst();
    note_store_inst();
    const bool values = !a.address_only();
    Lanes<std::uint64_t> addrs{};
    for (int l = 0; l < kWarpSize; ++l) {
      if (!lane_active(mask, l)) continue;
      const auto i = idx[static_cast<std::size_t>(l)];
      assert(i >= 0 && static_cast<std::size_t>(i) < a.size());
      addrs[static_cast<std::size_t>(l)] =
          a.base_addr() + static_cast<std::uint64_t>(i) * sizeof(float);
      if (values) a[static_cast<std::size_t>(i)] += v[static_cast<std::size_t>(l)];
    }
    const auto r = coalesce_gather(addrs, sizeof(float), mask);
    commit_load(r);
    commit_store(r);
    // Conflicting lanes are serialized (replays).
    const int conflicts =
        active_lanes(mask) - static_cast<int>(r.useful_bytes / sizeof(float));
    if (conflicts > 0) count_inst(static_cast<std::uint64_t>(conflicts));
    count_flops(static_cast<std::uint64_t>(active_lanes(mask)));
  }

  // --- Shared memory ---

  /// Account a shared-memory load/store of `bytes` useful bytes (one warp
  /// instruction each). Data movement itself happens through the span the
  /// block handed out, keeping the computation real.
  void smem_load(std::uint64_t bytes) {
    count_inst(1);
    rt_->metrics.smem_load_bytes += bytes;
  }
  void smem_store(std::uint64_t bytes) {
    count_inst(1);
    rt_->metrics.smem_store_bytes += bytes;
  }

  // --- Warp intrinsics / bookkeeping ---

  /// __shfl_sync: broadcast the value held by `src_lane`.
  template <typename T>
  T shfl(const Lanes<T>& v, int src_lane) {
    count_inst(1);
    return v[static_cast<std::size_t>(src_lane)];
  }

  void sync_warp() { count_inst(1); }

  /// FMA work: n fused multiply-adds = 2n FLOPs, one warp instruction per
  /// call site (SIMT executes all lanes at once).
  void count_fma(std::uint64_t n_lanes) {
    rt_->metrics.flops += 2 * n_lanes;
    count_inst(1);
  }

  /// Warp-level dense-tile multiply-accumulate (the MMA pipe): one issue
  /// computing an m x n x k tile, 2*m*n*k FLOPs regardless of how many
  /// slots hold real data — padding waste is charged at full price. The
  /// actual values move through the issuing kernel's own arithmetic (the
  /// "values move for real, accounting models the hardware" convention,
  /// cf. st_accounting); this call is the accounting event.
  void mma_tile(int m, int n, int k) {
    rt_->metrics.mma_flops += 2ull * static_cast<std::uint64_t>(m) *
                              static_cast<std::uint64_t>(n) *
                              static_cast<std::uint64_t>(k);
    ++rt_->metrics.mma_instructions;
    ++rt_->metrics.warp_instructions;
  }
  void count_flops(std::uint64_t n) { rt_->metrics.flops += n; }
  /// Arithmetic/control warp instructions not otherwise counted (loop
  /// increments, compares, address math).
  void count_inst(std::uint64_t n) { rt_->metrics.warp_instructions += n; }

 private:
  void note_load_inst() {
    ++rt_->metrics.gld_instructions;
    ++rt_->metrics.warp_instructions;
  }
  void note_store_inst() {
    ++rt_->metrics.gst_instructions;
    ++rt_->metrics.warp_instructions;
  }
  void commit_load(const CoalesceResult& r) {
    rt_->metrics.gld_useful_bytes += r.useful_bytes;
    for (int i = 0; i < r.transactions; ++i) {
      rt_->load_transaction(r.segments[static_cast<std::size_t>(i)]);
    }
  }
  void commit_store(const CoalesceResult& r) {
    rt_->metrics.gst_useful_bytes += r.useful_bytes;
    for (int i = 0; i < r.transactions; ++i) {
      rt_->store_transaction(r.segments[static_cast<std::size_t>(i)]);
    }
  }

  BlockRuntime* rt_;
  long long block_id_;
  int warp_in_block_;
};

/// Block-level view: hands out warps and shared memory.
class BlockCtx {
 public:
  BlockCtx(BlockRuntime& rt, const LaunchConfig& cfg, long long block_id)
      : rt_(&rt), cfg_(&cfg), block_id_(block_id),
        gld_inst_at_entry_(rt.metrics.gld_instructions) {
    rt_->begin_block();
  }

  /// On exit, record the block's load-chain length for the cost model's
  /// critical-path term (load imbalance: one huge block bounds the kernel).
  ~BlockCtx() {
    const std::uint64_t delta = rt_->metrics.gld_instructions - gld_inst_at_entry_;
    rt_->metrics.max_block_gld_instructions =
        std::max(rt_->metrics.max_block_gld_instructions, delta);
  }
  BlockCtx(const BlockCtx&) = delete;
  BlockCtx& operator=(const BlockCtx&) = delete;

  long long block_id() const { return block_id_; }
  int block_dim() const { return cfg_->block; }
  int num_warps() const { return (cfg_->block + kWarpSize - 1) / kWarpSize; }

  WarpCtx warp(int warp_in_block) { return WarpCtx(*rt_, block_id_, warp_in_block); }

  /// Bump-allocate `count` elements of block shared memory. Allocations are
  /// naturally aligned and must fit the smem_bytes declared in the launch
  /// config (asserted).
  template <typename T>
  std::span<T> smem_alloc(std::size_t count) {
    std::size_t off = (rt_->smem_used + alignof(T) - 1) & ~(alignof(T) - 1);
    assert(off + count * sizeof(T) <= rt_->smem.size() &&
           "kernel exceeded its declared shared memory");
    rt_->smem_used = off + count * sizeof(T);
    return {reinterpret_cast<T*>(rt_->smem.data() + off), count};
  }

  /// __syncthreads(): one instruction per warp; phases are executed in
  /// program order by the engine so this is an accounting event.
  void sync_block() { rt_->metrics.warp_instructions += static_cast<std::uint64_t>(num_warps()); }

 private:
  BlockRuntime* rt_;
  const LaunchConfig* cfg_;
  long long block_id_;
  std::uint64_t gld_inst_at_entry_;
};

/// Base class for simulated kernels.
class Kernel {
 public:
  virtual ~Kernel() = default;
  /// Launch geometry + static resources for a device.
  virtual LaunchConfig config(const DeviceSpec& dev) const = 0;
  /// Execute one thread block (called once per simulated block).
  virtual void run_block(BlockCtx& blk) const = 0;
  virtual std::string name() const = 0;
};

}  // namespace gespmm::gpusim
