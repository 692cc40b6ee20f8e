#include "serve/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace gespmm::serve {

const char* schedule_policy_name(SchedulePolicy p) {
  switch (p) {
    case SchedulePolicy::Fifo: return "fifo";
    case SchedulePolicy::DeficitRoundRobin: return "drr";
  }
  return "?";
}

Scheduler::Scheduler(SchedulerOptions opt, BatchConstraints limits,
                     std::vector<double> tenant_shares)
    : opt_(opt), limits_(limits), tenant_shares_(std::move(tenant_shares)) {
  if (opt_.quantum < 1) {
    throw std::invalid_argument("Scheduler: quantum must be at least 1");
  }
  if (limits_.max_batch_requests < 1) {
    throw std::invalid_argument("Scheduler: max_batch_requests must be at least 1");
  }
  // An unlisted tenant weighs 1.0, so the bare quantum is bounded too.
  // Under the bound deficit + grant and the 4x grant cap fit in index_t.
  const double max_grant = static_cast<double>(std::numeric_limits<index_t>::max() / 8);
  if (static_cast<double>(opt_.quantum) > max_grant) {
    throw std::invalid_argument("Scheduler: quantum too large");
  }
  for (const double s : tenant_shares_) {
    if (!(s > 0.0) || !std::isfinite(s)) {
      throw std::invalid_argument("Scheduler: tenant shares must be positive");
    }
    if (static_cast<double>(opt_.quantum) * s > max_grant) {
      throw std::invalid_argument("Scheduler: tenant share too large for the quantum");
    }
  }
}

index_t Scheduler::weighted_grant(std::uint32_t tenant) const {
  double share = 1.0;
  if (tenant < tenant_shares_.size()) share = tenant_shares_[tenant];
  // llround keeps the grant deterministic across platforms; a sub-1 share
  // can never starve (grant floor of one column per visit).
  const auto grant = static_cast<index_t>(
      std::llround(static_cast<double>(opt_.quantum) * share));
  return std::max<index_t>(grant, 1);
}

void Scheduler::enqueue(const SchedRequest& r) {
  const QueueKey key{r.graph, r.tenant};
  auto [it, created] = queues_.try_emplace(key);
  GraphQueue& gq = it->second;
  if (created) {
    gq.stats.graph = r.graph;
    gq.stats.tenant = r.tenant;
    gq.grant = weighted_grant(r.tenant);
    seen_order_.push_back(key);
  }
  if (gq.pending == 0) ring_.push_back(key);
  // Requests always land in their priority class; Fifo restores the v1
  // priority-blind order at pick time by sorting candidates on seq, so
  // both policies see one queue shape (and one invariant: each class
  // deque is seq-sorted because enqueue seqs strictly increase).
  const std::size_t cls = static_cast<std::size_t>(r.priority);
  gq.q[cls].push_back(Item{r.seq, r.n, r.reduce, r.model});
  ++gq.pending;
  ++gq.stats.enqueued;
  ++pending_;
}

const Scheduler::Item& Scheduler::head_of(const GraphQueue& gq) const {
  for (const auto& dq : gq.q) {
    if (!dq.empty()) return dq.front();
  }
  throw std::logic_error("Scheduler: head_of on empty graph queue");
}

std::vector<std::uint64_t> Scheduler::serve_from(GraphQueue& gq, index_t allowed,
                                                 index_t* total_width,
                                                 bool fifo_order) {
  // Anchor = head in pick order — (priority, seq) under DRR, global
  // admission seq under Fifo; later same-reduce requests join while the
  // summed width stays within `allowed` and the count within
  // max_batch_requests. Mismatched requests are skipped, never blocking
  // a compatible one behind them. A model request is a whole forward
  // pass: it anchors a singleton batch and never rides along.
  struct Pick {
    std::size_t cls;
    std::size_t idx;
  };
  std::vector<Pick> order;
  for (std::size_t cls = 0; cls < kNumPriorities; ++cls) {
    for (std::size_t i = 0; i < gq.q[cls].size(); ++i) {
      order.push_back({cls, i});
    }
  }
  if (fifo_order) {
    std::sort(order.begin(), order.end(), [&gq](const Pick& a, const Pick& b) {
      return gq.q[a.cls][a.idx].seq < gq.q[b.cls][b.idx].seq;
    });
  }
  std::vector<Pick> picks;
  std::vector<std::uint64_t> seqs;
  const Item* anchor = nullptr;
  index_t total = 0;
  for (const Pick& p : order) {
    if (picks.size() >= limits_.max_batch_requests) break;
    const Item& item = gq.q[p.cls][p.idx];
    if (anchor == nullptr) {
      anchor = &item;
      picks.push_back(p);
      seqs.push_back(item.seq);
      total = item.n;
      if (item.model) break;  // a whole-model ticket ships alone
      continue;
    }
    if (item.model) continue;  // and never rides in someone else's batch
    if (item.reduce != anchor->reduce) continue;
    if (total > allowed - item.n) continue;
    picks.push_back(p);
    seqs.push_back(item.seq);
    total += item.n;
  }
  // Erase back-to-front in (cls, idx) order so earlier indices stay valid
  // (under fifo_order the picks may be interleaved across classes).
  std::sort(picks.begin(), picks.end(), [](const Pick& a, const Pick& b) {
    return a.cls != b.cls ? a.cls < b.cls : a.idx < b.idx;
  });
  for (auto it = picks.rbegin(); it != picks.rend(); ++it) {
    auto& dq = gq.q[it->cls];
    dq.erase(dq.begin() + static_cast<std::ptrdiff_t>(it->idx));
  }
  gq.pending -= picks.size();
  pending_ -= picks.size();
  gq.stats.served += picks.size();
  gq.stats.batches += 1;
  gq.stats.served_width += static_cast<std::uint64_t>(total);
  *total_width = total;
  return seqs;
}

void Scheduler::deactivate(const QueueKey& key) {
  const auto it = std::find(ring_.begin(), ring_.end(), key);
  const auto idx = static_cast<std::size_t>(it - ring_.begin());
  ring_.erase(it);
  if (idx < cursor_) --cursor_;
  if (cursor_ >= ring_.size()) cursor_ = 0;
}

std::vector<std::uint64_t> Scheduler::next_batch_fifo() {
  // The globally oldest pending request anchors, wherever it lives — and
  // it may sit in any priority class: a queue whose interactive deque is
  // empty still has batch/best-effort work pending. (Blindly reading
  // q[0].front() here was undefined behavior on exactly that shape, and
  // even with q[0] non-empty it anchored on the oldest *interactive*
  // request, not the oldest request.) Each class deque is seq-sorted, so
  // the per-queue oldest is the minimum over non-empty class fronts.
  QueueKey best_key{0, 0};
  std::uint64_t best_seq = 0;
  index_t best_n = 0;
  bool found = false;
  for (const QueueKey& k : ring_) {
    for (const auto& dq : queues_.at(k).q) {
      if (dq.empty()) continue;
      if (!found || dq.front().seq < best_seq) {
        best_key = k;
        best_seq = dq.front().seq;
        best_n = dq.front().n;
        found = true;
      }
    }
  }
  GraphQueue& gq = queues_.at(best_key);
  index_t total = 0;
  auto seqs = serve_from(gq, std::max(limits_.max_batch_n, best_n), &total,
                         /*fifo_order=*/true);
  if (gq.pending == 0) deactivate(best_key);
  return seqs;
}

std::vector<std::uint64_t> Scheduler::next_batch_drr() {
  for (;;) {
    if (cursor_ >= ring_.size()) cursor_ = 0;
    const QueueKey key = ring_[cursor_];
    GraphQueue& gq = queues_.at(key);
    const Item& head = head_of(gq);
    gq.deficit = std::min(gq.deficit + gq.grant, std::max(4 * gq.grant, head.n));
    if (gq.deficit < head.n) {
      // Not enough credit yet; the next rotation adds another grant,
      // so this head ships after at most ceil(n / grant) rotations.
      ++gq.stats.deferred;
      ++cursor_;
      continue;
    }
    index_t allowed = std::min(gq.deficit, limits_.max_batch_n);
    allowed = std::max(allowed, head.n);
    index_t total = 0;
    auto seqs = serve_from(gq, allowed, &total, /*fifo_order=*/false);
    gq.deficit = std::max<index_t>(gq.deficit - total, 0);
    if (gq.pending == 0) {
      gq.deficit = 0;  // credit does not survive idleness
      deactivate(key);
    } else {
      ++cursor_;  // one batch per visit, then move on
    }
    return seqs;
  }
}

std::vector<std::uint64_t> Scheduler::next_batch() {
  if (pending_ == 0) return {};
  return opt_.policy == SchedulePolicy::Fifo ? next_batch_fifo()
                                             : next_batch_drr();
}

std::vector<GraphServeStats> Scheduler::stats() const {
  std::vector<GraphServeStats> out;
  out.reserve(seen_order_.size());
  for (const QueueKey& k : seen_order_) {
    const GraphQueue& gq = queues_.at(k);
    GraphServeStats st = gq.stats;
    st.pending = gq.pending;
    out.push_back(st);
  }
  return out;
}

}  // namespace gespmm::serve
