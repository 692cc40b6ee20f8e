#include "serve/plan_cache.hpp"

#include <algorithm>

#include "kernels/registry.hpp"
#include "kernels/spmm_hybrid.hpp"
#include "kernels/spmm_problem.hpp"

namespace gespmm::serve {

PlanLease& PlanLease::operator=(PlanLease&& o) noexcept {
  if (this != &o) {
    release();
    plan_ = std::move(o.plan_);
    cache_ = o.cache_;
    key_ = std::move(o.key_);
    hit_ = o.hit_;
    o.plan_ = nullptr;
    o.cache_ = nullptr;
    o.hit_ = false;
  }
  return *this;
}

void PlanLease::release() {
  if (cache_ != nullptr) {
    cache_->unpin(key_);
    cache_ = nullptr;
  }
}

PlanKey PlanCache::quantized(const PlanKey& key) const {
  PlanKey q = key;
  if (opt_.width_quantum > 1) {
    const index_t quantum = opt_.width_quantum;
    q.n = (q.n + quantum - 1) / quantum * quantum;
  }
  return q;
}

std::shared_ptr<CachedPlan> PlanCache::build(const PlanKey& key, const Csr& a,
                                             const gpusim::DeviceSpec& device) const {
  auto plan = std::make_shared<CachedPlan>();
  if (opt_.autotune && key.reduce == ReduceKind::Sum) {
    AutotuneOptions aopt;
    aopt.device = device;
    aopt.sample_blocks = opt_.sample_blocks;
    aopt.mode = opt_.selection;
    aopt.retune_regret = opt_.retune_regret;
    const AutotuneResult res = autotune_spmm(a, key.n, aopt);
    plan->algo = res.best;
    plan->modelled_ms = res.times_ms.at(res.best);
    plan->steps = res.steps;
    plan->autotuned = true;
    plan->gain_over_default = res.gain_over_default;
    plan->build_ms = res.build_ms;
    plan->predicted = res.predicted;
    plan->retuned = res.retuned;
    plan->mispredicted = res.mispredicted;
  } else {
    // Non-sum reductions (and autotune=false) skip the tuner sweep but a
    // tuning-enabled cache still routes them through the learned selector
    // so hybrid partitioning stays available for every semiring (the
    // hybrid kernel folds in CSR order, bitwise identical under all of
    // them). autotune=false pins the paper's fixed Fig. 7(c) rule.
    plan->algo = opt_.autotune ? select_spmm_algo(a, key.n, device)
                               : kernels::select_gespmm_algo(key.n);
    kernels::SpmmProblem p(a, key.n);
    kernels::SpmmRunOptions ro;
    ro.device = device;
    ro.sample = gpusim::SamplePolicy::sampled(opt_.sample_blocks);
    ro.reduce = key.reduce;
    if (plan->algo == SpmmAlgo::HybridMma) {
      const auto d = kernels::run_spmm_hybrid_detailed(p, ro);
      plan->steps = hybrid_step_plan(d.dense_rows, a.rows, d.dense_ms, d.ragged_ms);
      plan->modelled_ms = plan_steps_time_ms(plan->steps);
    } else {
      plan->modelled_ms = kernels::run_spmm(plan->algo, p, ro).time_ms();
      plan->steps = single_step_plan(plan->algo, a.rows, plan->modelled_ms);
    }
  }
  return plan;
}

void PlanCache::note_build(const CachedPlan& plan) {
  if (plan.steps.size() > 1) ++hybrid_builds_;
  if (!plan.autotuned) return;  // fixed-rule builds have no selection story
  if (plan.predicted && !plan.retuned) {
    ++predicted_builds_;
  } else {
    ++exact_builds_;
  }
  if (plan.retuned) ++retunes_;
  if (plan.mispredicted) ++mispredicts_;
}

void PlanCache::touch(Entry& e) {
  lru_.splice(lru_.end(), lru_, e.lru_it);
  e.lru_it = std::prev(lru_.end());
}

void PlanCache::unpin(const PlanKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = plans_.find(key);
  if (it != plans_.end() && it->second.pins > 0) {
    --it->second.pins;
    --pin_count_;
  }
}

PlanLease PlanCache::acquire(const PlanKey& raw_key, const Csr& a,
                             const gpusim::DeviceSpec& device) {
  const PlanKey key = quantized(raw_key);
  if (!opt_.enabled) {
    // Pure build path: nothing is looked up or retained, so every acquire
    // is a miss and every build is handed back uncached. The cold-start
    // benches use this to price planning per request.
    auto plan = build(key, a, device);
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    ++uncached_builds_;
    note_build(*plan);
    return PlanLease(std::move(plan), nullptr, key, false);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = plans_.find(key); it != plans_.end()) {
      ++hits_;
      touch(it->second);
      ++it->second.pins;
      ++pin_count_;
      return PlanLease(it->second.plan, this, key, true);
    }
    ++misses_;
  }

  // Build outside the lock: a simulated candidate sweep is the expensive
  // part and must not block cache hits on other graphs. Two threads
  // racing the same key both build identical (deterministic) plans; the
  // first insert wins.
  auto plan = build(key, a, device);

  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = plans_.find(key); it != plans_.end()) {
    // A racer inserted first; share the resident plan and discard ours.
    // The discarded build stays out of note_build's selection counters —
    // the winner's build already counted, and a duplicate would break the
    // `misses == inserts + uncached_builds + duplicate_builds` ledger.
    ++duplicate_builds_;
    touch(it->second);
    ++it->second.pins;
    ++pin_count_;
    return PlanLease(it->second.plan, this, key, false);
  }
  note_build(*plan);
  while (opt_.max_entries > 0 && plans_.size() >= opt_.max_entries) {
    // Evict the least recently used unpinned plan. The budget is a hard
    // ceiling: if every resident plan is pinned by an in-flight batch,
    // hand the new plan back uncached instead of breaching it.
    auto victim = lru_.begin();
    while (victim != lru_.end() && plans_.at(*victim).pins > 0) ++victim;
    if (victim == lru_.end()) {
      ++uncached_builds_;
      return PlanLease(std::move(plan), nullptr, key, false);
    }
    plans_.erase(*victim);
    lru_.erase(victim);
    ++evictions_;
  }
  auto [it, inserted] = plans_.emplace(key, Entry{plan, 1, lru_.end()});
  (void)inserted;
  it->second.lru_it = lru_.insert(lru_.end(), key);
  ++inserts_;
  ++pin_count_;
  peak_size_ = std::max(peak_size_, plans_.size());
  return PlanLease(std::move(plan), this, key, false);
}

std::shared_ptr<const CachedPlan> PlanCache::lookup_or_build(
    const PlanKey& key, const Csr& a, const gpusim::DeviceSpec& device,
    bool* was_hit) {
  PlanLease lease = acquire(key, a, device);
  if (was_hit) *was_hit = lease.hit();
  return lease.plan();
}

std::size_t PlanCache::invalidate(std::uint64_t graph_key) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t erased = 0;
  for (auto it = plans_.begin(); it != plans_.end();) {
    if (it->first.graph == graph_key && it->second.pins == 0) {
      lru_.erase(it->second.lru_it);
      it = plans_.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  invalidations_ += erased;
  return erased;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats st;
  st.hits = hits_;
  st.misses = misses_;
  st.inserts = inserts_;
  st.evictions = evictions_;
  st.uncached_builds = uncached_builds_;
  st.predicted_builds = predicted_builds_;
  st.exact_builds = exact_builds_;
  st.retunes = retunes_;
  st.mispredicts = mispredicts_;
  st.hybrid_builds = hybrid_builds_;
  st.duplicate_builds = duplicate_builds_;
  st.invalidations = invalidations_;
  st.size = plans_.size();
  st.peak_size = peak_size_;
  st.pinned = pin_count_;
  return st;
}

std::uint64_t PlanCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t PlanCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

std::vector<PlanKey> PlanCache::resident_keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PlanKey> keys;
  keys.reserve(lru_.size());
  for (const auto& k : lru_) keys.push_back(k);
  return keys;
}

}  // namespace gespmm::serve
