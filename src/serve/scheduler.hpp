#pragma once
/// \file scheduler.hpp
/// Cross-queue request scheduling: which (graph, tenant) queue supplies
/// the next batch, and which requests ride in it.
///
/// The v1 engine formed batches from one global FIFO: correct, but a hot
/// graph that floods the queue monopolizes the workers — every cold
/// graph's requests wait behind the entire hot backlog (cross-tenant
/// head-of-line blocking). The v2+ scheduler keeps one queue *per
/// (registered graph, tenant)* and picks the next batch by deficit
/// round-robin (DRR, Shreedhar & Varghese): each visit grants the queue
/// its tenant's *weighted* quantum of width credit —
/// `quantum * tenant_shares[tenant]` output columns — and a queue ships a
/// batch only while its credit covers the batch's summed width. Over any
/// backlogged window every queue therefore serves width proportional to
/// its tenant's configured share (the weighted-fairness property the
/// tenant sweep pins), and starvation is impossible by construction — a
/// waiting queue's deficit grows every rotation until its head request
/// fits, however wide it is. With one tenant at share 1.0 (the default)
/// this degenerates bitwise to the unweighted per-graph DRR of v2.
///
/// Within one queue, requests order by (priority, admission seq):
/// interactive before batch before best-effort, FIFO inside a class.
/// Batches only coalesce same-reduce requests: requests on one graph are
/// column-wise independent, so their feature matrices concatenate into
/// one B answered by a single kernel launch (the batching opportunity of
/// "Batched Sparse Matrix Multiplication for Accelerating Graph
/// Convolutional Networks", IPDPS 2019), but one launch runs one
/// semiring. Incompatible requests are skipped, not blocked: a compatible
/// request may ride along from behind them.
/// Requests from different tenants never share a batch — their queues are
/// distinct — so per-tenant served-width accounting stays exact.
///
/// All state is explicit (seq numbers, deficits, a rotation cursor) and
/// no decision reads the clock, so a fixed enqueue order yields one
/// exact batch sequence — the property the fairness goldens and the
/// stress test's serial replay pin down. The scheduler is single-
/// threaded by design; the engine guards it with its queue lock.

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "core/gespmm.hpp"
#include "serve/admission.hpp"

namespace gespmm::serve {

/// Coalescing limits.
struct BatchConstraints {
  /// Widest dense matrix a single batch may accumulate. Bounds both the
  /// coalesced B's footprint and per-request latency; a request wider
  /// than this still runs, alone.
  index_t max_batch_n = 256;
  /// Most requests one batch may carry (bounds result-splitting work).
  std::size_t max_batch_requests = 16;
};

/// Which policy picks the next batch.
enum class SchedulePolicy {
  /// v1 behavior: the oldest pending request (by admission seq,
  /// priority-blind) anchors the batch. Kept as the baseline policy the
  /// fairness bench compares against.
  Fifo,
  /// Weighted deficit round-robin across per-(graph, tenant) queues (the
  /// default).
  DeficitRoundRobin,
};

/// "fifo" / "drr".
const char* schedule_policy_name(SchedulePolicy p);

/// Scheduler knobs.
struct SchedulerOptions {
  SchedulePolicy policy = SchedulePolicy::DeficitRoundRobin;
  /// Width credit (output columns) granted per DRR visit to a share-1.0
  /// tenant. At the default it matches BatchConstraints::max_batch_n, so
  /// a backlogged queue ships one full-width batch per rotation.
  index_t quantum = 256;
  /// Cap on accumulated credit, bounding the burst an idle-then-busy
  /// queue can ship at once. 0 = auto (4x the queue's weighted quantum).
  /// The cap never blocks a head request wider than itself: credit may
  /// always grow until the head fits.
  index_t max_deficit = 0;
  /// Per-tenant DRR weights, indexed by `SchedRequest::tenant`. A tenant
  /// beyond the vector (or an empty vector — the default) weighs 1.0.
  /// The engine fills this from `ServeOptions::tenants`.
  std::vector<double> tenant_shares;
};

/// The scheduling-relevant shape of one admitted request.
struct SchedRequest {
  /// Admission sequence number (engine-assigned, strictly increasing).
  std::uint64_t seq = 0;
  /// GraphFingerprint::key() of the registered operand.
  std::uint64_t graph = 0;
  /// Width of the request's feature matrix.
  index_t n = 0;
  ReduceKind reduce = ReduceKind::Sum;
  Priority priority = Priority::Interactive;
  /// A fused whole-model request (Engine::submit_model): it never
  /// coalesces with other requests — one ticket is already a full forward
  /// pass — and its `n` is the model's summed per-layer SpMM width, the
  /// DRR credit the whole pass costs.
  bool model = false;
  /// Tenant index (engine-assigned, sorted-name order). Requests of
  /// different tenants queue — and are credited — separately.
  std::uint32_t tenant = 0;
};

/// Per-(graph, tenant) scheduling counters.
struct GraphServeStats {
  std::uint64_t graph = 0;
  std::uint64_t enqueued = 0;
  /// Requests shipped in batches.
  std::uint64_t served = 0;
  std::uint64_t batches = 0;
  /// DRR visits where the queue had pending work but its deficit did not
  /// yet cover the head request (always 0 under Fifo).
  std::uint64_t deferred = 0;
  /// Summed width of served requests — the DRR fairness currency.
  std::uint64_t served_width = 0;
  /// Requests currently pending (snapshot).
  std::uint64_t pending = 0;
  /// Tenant index this queue belongs to.
  std::uint32_t tenant = 0;
};

/// Deterministic cross-queue batch scheduler. Not thread-safe.
class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions opt = {}, BatchConstraints limits = {});

  /// Add an admitted request. `seq` values must be distinct and
  /// increasing across calls (the engine's admission counter).
  void enqueue(const SchedRequest& r);

  /// Requests admitted but not yet shipped.
  std::size_t pending() const { return pending_; }
  bool empty() const { return pending_ == 0; }

  /// Pop the next batch: admission seqs of same-(graph, tenant, reduce)
  /// requests, in (priority, seq) order. Empty only when nothing is
  /// pending.
  std::vector<std::uint64_t> next_batch();

  /// Counters for every (graph, tenant) queue ever enqueued, in
  /// first-seen order.
  std::vector<GraphServeStats> stats() const;

  const SchedulerOptions& options() const { return opt_; }

 private:
  /// Queue identity: one per (graph, tenant) pair.
  using QueueKey = std::pair<std::uint64_t, std::uint32_t>;

  struct Item {
    std::uint64_t seq = 0;
    index_t n = 0;
    ReduceKind reduce = ReduceKind::Sum;
    bool model = false;
  };
  struct GraphQueue {
    std::array<std::deque<Item>, kNumPriorities> q;
    index_t deficit = 0;
    std::size_t pending = 0;
    /// This queue's per-visit DRR grant (quantum x tenant share, >= 1).
    index_t grant = 1;
    GraphServeStats stats;
  };

  const Item& head_of(const GraphQueue& gq) const;
  /// Form, remove and account one batch from `gq`, coalescing up to
  /// `allowed` summed width; returns the seqs and sets `total_width`.
  /// `fifo_order` anchors and joins in global admission order (the v1
  /// priority-blind rule); otherwise (priority, seq) order. A model
  /// request always ships alone, whichever role it plays.
  std::vector<std::uint64_t> serve_from(GraphQueue& gq, index_t allowed,
                                        index_t* total_width, bool fifo_order);
  void deactivate(const QueueKey& key);
  std::vector<std::uint64_t> next_batch_fifo();
  std::vector<std::uint64_t> next_batch_drr();
  index_t weighted_grant(std::uint32_t tenant) const;
  index_t deficit_cap(index_t grant, index_t head_n) const;

  SchedulerOptions opt_;
  BatchConstraints limits_;
  std::map<QueueKey, GraphQueue> queues_;
  /// Queues in first-enqueue order (stats order).
  std::vector<QueueKey> seen_order_;
  /// Queues with pending work, in activation order (the DRR ring).
  std::vector<QueueKey> ring_;
  std::size_t cursor_ = 0;
  std::size_t pending_ = 0;
};

}  // namespace gespmm::serve
