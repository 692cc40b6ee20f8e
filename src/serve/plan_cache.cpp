#include "serve/plan_cache.hpp"

#include <algorithm>

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
  AutotuneOptions aopt;
  aopt.device = device;
  aopt.sample_blocks = opt_.sample_blocks;
  aopt.mode = opt_.selection;
  aopt.retune_regret = opt_.retune_regret;
  AutotuneResult res = autotune_spmm(a, key.n, aopt, key.reduce);
  auto plan = std::make_shared<CachedPlan>();
  plan->algo = res.best;
  plan->modelled_ms = res.times_ms.at(res.best);
  plan->steps = std::move(res.steps);
  plan->build_ms = res.build_ms;
  plan->predicted = res.predicted;
  plan->retuned = res.retuned;
  plan->mispredicted = res.mispredicted;
  return plan;
}

void PlanCache::note_build(const PlanKey& key, const CachedPlan& plan) {
  if (plan.steps.size() > 1) ++stats_.hybrid_builds;
  // Only a Sum build has a selection story: other reductions always take
  // the prediction, with no sweep to count.
  if (key.reduce != ReduceKind::Sum) return;
  if (plan.predicted && !plan.retuned) {
    ++stats_.predicted_builds;
  } else {
    ++stats_.exact_builds;
  }
  if (plan.retuned) ++stats_.retunes;
  if (plan.mispredicted) ++stats_.mispredicts;
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
    --stats_.pinned;
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
    ++stats_.misses;
    ++stats_.uncached_builds;
    note_build(key, *plan);
    return PlanLease(std::move(plan), nullptr, key, false);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = plans_.find(key); it != plans_.end()) {
      ++stats_.hits;
      touch(it->second);
      ++it->second.pins;
      ++stats_.pinned;
      return PlanLease(it->second.plan, this, key, true);
    }
    ++stats_.misses;
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
    ++stats_.duplicate_builds;
    touch(it->second);
    ++it->second.pins;
    ++stats_.pinned;
    return PlanLease(it->second.plan, this, key, false);
  }
  note_build(key, *plan);
  while (opt_.max_entries > 0 && plans_.size() >= opt_.max_entries) {
    // Evict the least recently used unpinned plan. The budget is a hard
    // ceiling: if every resident plan is pinned by an in-flight batch,
    // hand the new plan back uncached instead of breaching it.
    auto victim = lru_.begin();
    while (victim != lru_.end() && plans_.at(*victim).pins > 0) ++victim;
    if (victim == lru_.end()) {
      ++stats_.uncached_builds;
      return PlanLease(std::move(plan), nullptr, key, false);
    }
    plans_.erase(*victim);
    lru_.erase(victim);
    ++stats_.evictions;
  }
  auto [it, inserted] = plans_.emplace(key, Entry{plan, 1, lru_.end()});
  (void)inserted;
  it->second.lru_it = lru_.insert(lru_.end(), key);
  ++stats_.inserts;
  ++stats_.pinned;
  stats_.peak_size = std::max(stats_.peak_size, plans_.size());
  return PlanLease(std::move(plan), this, key, false);
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
  stats_.invalidations += erased;
  return erased;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PlanCacheStats st = stats_;
  st.size = plans_.size();
  return st;
}

std::vector<PlanKey> PlanCache::resident_keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PlanKey> keys;
  keys.reserve(lru_.size());
  for (const auto& k : lru_) keys.push_back(k);
  return keys;
}

}  // namespace gespmm::serve
