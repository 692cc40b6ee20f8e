#pragma once
/// \file plan_cache.hpp
/// Thread-safe, bounded cache of execution plans keyed by (graph
/// fingerprint, device, dense width, reduction).
///
/// A *plan* is the outcome of algorithm selection for one SpMM shape: the
/// kernel to run and its modelled device time. Every plan is built by one
/// `autotune_spmm` call (src/core/autotune), which costs at least one
/// block-sampled simulator pass; serving the same graph repeatedly must
/// pay that once, not per request — the plan-reuse argument of GE-SpMM's
/// repeated-SpMM GNN setting. Entries are immutable once built, so
/// readers share them lock-free via shared_ptr.
///
/// The cache is bounded for long-lived daemons: at most
/// `PlanCacheOptions::max_entries` plans are resident at any observation
/// point, with least-recently-used eviction on insert. Plans *pinned* by
/// in-flight batches (see PlanLease) are never evicted; if the budget is
/// full of pinned plans, a newly built plan is handed back uncached
/// rather than breaching the budget. `stats().peak_size` records the
/// high-water resident count so tests can assert the budget invariant.

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/autotune.hpp"
#include "serve/fingerprint.hpp"

namespace gespmm::serve {

using kernels::ReduceKind;
using kernels::SpmmAlgo;

/// Cache key: everything algorithm selection depends on.
struct PlanKey {
  /// GraphFingerprint::key() of the registered operand — for a shard plan,
  /// of the shard's CSR slice (see GraphShard::key), so identical slices
  /// share a plan whatever graph they came from.
  std::uint64_t graph = 0;
  /// Device preset name ("gtx1080ti" / "rtx2080").
  std::string device;
  /// Dense-matrix width N the kernel will run at (after batching).
  index_t n = 0;
  /// Reduction of the SpMM-like operation.
  ReduceKind reduce = ReduceKind::Sum;
  /// Shard index when the graph is row-partitioned across a device group
  /// (see shard.hpp): each shard's CSR slice autotunes separately, so the
  /// key must tell them apart. -1 = the whole, unsharded operand.
  std::int32_t shard = -1;

  auto operator<=>(const PlanKey&) const = default;
};

/// An immutable, cached algorithm-selection result: the parts of the
/// AutotuneResult for its key that the engine executes and accounts.
struct CachedPlan {
  /// Kernel the engine will account this shape against. HybridMma when
  /// the plan is partitioned (see `steps`).
  SpmmAlgo algo = SpmmAlgo::GeSpMM;
  /// Block-sampled modelled device time for one SpMM at this shape (ms).
  /// Always equals the sum of the step times in `steps`.
  double modelled_ms = 0.0;
  /// The compiled row-partition step list this plan executes: one step
  /// over all rows for a single-kernel winner, the dense-MMA +
  /// ragged-SIMT pair when selection picks the density-partitioned
  /// hybrid. The step list is a *deterministic function of the PlanKey*
  /// (the partition depends only on the graph content the fingerprint
  /// hashes and on the device's MMA tile), so the key does not need to
  /// carry it — two caches building the same key always compile the same
  /// steps.
  std::vector<PlanStep> steps;
  /// Modelled device time algorithm selection itself cost: the candidate
  /// profiling runs beyond the one that priced the chosen kernel (see
  /// AutotuneResult::build_ms). The engine charges this to the requesting
  /// device's clock when the plan was freshly built; 0 for cache hits,
  /// pure predictions and every non-Sum plan.
  double build_ms = 0.0;
  /// `algo` came from the trained predictor: SelectionMode::Predict, or
  /// any non-Sum reduction (the sweep runs for Sum only). When `retuned`
  /// is also set, the sweep had the final word on `algo`.
  bool predicted = false;
  /// The predict path escalated to the exact sweep (retune_regret).
  bool retuned = false;
  /// That escalation found a kernel strictly faster than the prediction.
  bool mispredicted = false;
};

/// How plans are built and retained.
struct PlanCacheOptions {
  /// How Sum plans select: Predict (default) maps matrix features
  /// through the trained table (core/plan_select) at zero modelled
  /// planning cost; Exact runs the legacy candidate sweep, whose extra
  /// profiling runs are charged via CachedPlan::build_ms. Plans for other
  /// reductions take the predicted kernel in either mode.
  SelectionMode selection = SelectionMode::Predict;
  /// Online refinement (Predict only): forwarded to
  /// AutotuneOptions::retune_regret — escalate a prediction to the exact
  /// sweep when its priced time exceeds this factor of the fixed rule's.
  /// 0 disables; (0, 1] verifies every prediction (the property suite's
  /// mispredict-counting mode); > 1 retunes only clear regressions.
  double retune_regret = 0.0;
  /// Simulator block-sampling budget per candidate.
  std::uint64_t sample_blocks = 512;
  /// Master switch: false turns the cache into a pure build path — every
  /// acquire misses and hands back an uncached plan, nothing is retained.
  /// The cold-start benches measure planning cost per request with this.
  bool enabled = true;
  /// Plan widths are quantized up to a multiple of this before lookup, so
  /// variable batch compositions (16+32, 3x16, ...) share plans instead of
  /// each paying a candidate sweep. One warp covers 32 output columns with
  /// lane masking, so the kernel choice is insensitive within a 32-wide
  /// bucket and the quantized modelled time is a (<= 31 columns) upper
  /// bound of the exact one. Set 1 for exact-width keys.
  index_t width_quantum = 32;
  /// Entry budget: most plans resident at once (0 = unbounded). On
  /// insert beyond the budget the least-recently-used unpinned plan is
  /// evicted; when every resident plan is pinned, the new plan is
  /// returned uncached instead.
  std::size_t max_entries = 128;
};

/// Cache counters; `size`/`pinned` are the current residency snapshot,
/// `peak_size` the high-water mark (the budget-invariant observation
/// hook: it never exceeds `max_entries` when the cache is bounded).
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  /// Builds handed back uncached because the budget was full of pinned
  /// plans, or because the cache is disabled (every disabled-cache build
  /// counts here and in `misses`).
  std::uint64_t uncached_builds = 0;
  /// Sum builds whose kernel came from the trained predictor vs. the
  /// exact candidate sweep. Builds for other reductions count in neither
  /// (they always take the prediction, so there is no selection to
  /// count); a build that retuned counts as exact (the sweep decided).
  std::uint64_t predicted_builds = 0;
  std::uint64_t exact_builds = 0;
  /// Predict-path builds that escalated to the sweep (retune_regret), and
  /// how many of those found the prediction strictly beaten — the online
  /// refinement hook's mispredict counter.
  std::uint64_t retunes = 0;
  std::uint64_t mispredicts = 0;
  /// Builds that compiled to a multi-step (density-partitioned hybrid)
  /// plan — counted for every fresh build whatever the reduction, so the
  /// serving layer can observe how often partitioned execution wins.
  std::uint64_t hybrid_builds = 0;
  /// Builds discarded because a racer inserted the same key first. These
  /// count in neither the selection counters above nor `inserts` — the
  /// winning build already covered both — so the miss ledger reconciles:
  /// `misses == inserts + uncached_builds + duplicate_builds` at every
  /// quiescent observation point.
  std::uint64_t duplicate_builds = 0;
  /// Entries erased by `invalidate()` (targeted staleness, e.g. a graph
  /// update bumping its fingerprint version) — disjoint from `evictions`,
  /// which counts LRU capacity pressure only.
  std::uint64_t invalidations = 0;
  std::size_t size = 0;
  std::size_t peak_size = 0;
  /// Outstanding pins (PlanLease objects alive on resident plans).
  std::size_t pinned = 0;
};

class PlanCache;

/// Move-only RAII pin on a plan returned by PlanCache::acquire. While a
/// lease is alive its plan cannot be evicted, so an executing batch keeps
/// its plan resident for concurrent requests to hit. Destruction (or
/// release()) unpins; the shared_ptr keeps the plan itself valid either
/// way.
class PlanLease {
 public:
  PlanLease() = default;
  PlanLease(PlanLease&& o) noexcept { *this = std::move(o); }
  PlanLease& operator=(PlanLease&& o) noexcept;
  PlanLease(const PlanLease&) = delete;
  PlanLease& operator=(const PlanLease&) = delete;
  ~PlanLease() { release(); }

  const CachedPlan& operator*() const { return *plan_; }
  const CachedPlan* operator->() const { return plan_.get(); }
  std::shared_ptr<const CachedPlan> plan() const { return plan_; }

  bool valid() const { return plan_ != nullptr; }
  /// Whether the plan was already resident when acquired.
  bool hit() const { return hit_; }
  /// False when the plan was built but not inserted (budget full of
  /// pinned plans) — the plan is still valid and correct, just unshared.
  bool cached() const { return cache_ != nullptr; }

  /// Drop the pin early (idempotent).
  void release();

 private:
  friend class PlanCache;
  PlanLease(std::shared_ptr<const CachedPlan> plan, PlanCache* cache,
            PlanKey key, bool hit)
      : plan_(std::move(plan)), cache_(cache), key_(std::move(key)), hit_(hit) {}

  std::shared_ptr<const CachedPlan> plan_;
  PlanCache* cache_ = nullptr;
  PlanKey key_;
  bool hit_ = false;
};

/// Thread-safe lookup-or-build plan store with LRU eviction, pinning and
/// hit/miss/eviction accounting.
class PlanCache {
 public:
  explicit PlanCache(PlanCacheOptions opt = {}) : opt_(opt) {}

  /// Return a pinned lease on the plan for `key` (its width quantized per
  /// `width_quantum`), building it from `a` on `device` if absent.
  /// Concurrent misses on the same key both build (deterministically
  /// identical) plans; the first insert wins. Hold the lease for the
  /// duration of the batch that uses the plan.
  PlanLease acquire(const PlanKey& key, const Csr& a,
                    const gpusim::DeviceSpec& device);

  /// Erase every unpinned resident plan whose `PlanKey::graph` equals
  /// `graph_key` (all devices, widths, reduces and shard indices), e.g.
  /// because a graph update made that fingerprint stale. Pinned plans
  /// survive — an in-flight batch that captured the old graph snapshot is
  /// still executing it correctly — and age out via LRU once released.
  /// Returns the number of entries erased (also summed into
  /// `PlanCacheStats::invalidations`).
  std::size_t invalidate(std::uint64_t graph_key);

  /// Full counter snapshot (consistent: taken under one lock).
  PlanCacheStats stats() const;

  /// Resident keys in eviction order (least recently used first) — the
  /// observation hook the LRU-order goldens assert on. Keys carry the
  /// quantized width.
  std::vector<PlanKey> resident_keys() const;

 private:
  friend class PlanLease;

  struct Entry {
    std::shared_ptr<const CachedPlan> plan;
    std::size_t pins = 0;
    std::list<PlanKey>::iterator lru_it;
  };

  PlanKey quantized(const PlanKey& key) const;
  std::shared_ptr<CachedPlan> build(const PlanKey& key, const Csr& a,
                                    const gpusim::DeviceSpec& device) const;
  /// Fold a freshly built plan into the selection counters (under mu_).
  void note_build(const PlanKey& key, const CachedPlan& plan);
  /// Move `e` to the most-recently-used end (call under mu_).
  void touch(Entry& e);
  void unpin(const PlanKey& key);

  PlanCacheOptions opt_;
  mutable std::mutex mu_;
  std::map<PlanKey, Entry> plans_;
  /// Front = least recently used, back = most recently used.
  std::list<PlanKey> lru_;
  /// Every counter but `size`, which stats() reads from plans_.
  PlanCacheStats stats_;
};

}  // namespace gespmm::serve
