/// Scheduler v2: admission-control goldens, deficit-round-robin fairness
/// (exact batch-sequence goldens plus randomized property sweeps),
/// priority ordering, plan-cache LRU eviction / pinning / budget
/// invariants, and the engine-level shed-ticket contract and
/// cold-vs-hot-graph latency win over FIFO.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "core/gespmm.hpp"
#include "serve/engine.hpp"
#include "sparse/rng.hpp"
#include "test_util.hpp"

namespace gespmm {
namespace {

using serve::AdmissionController;
using serve::AdmissionOptions;
using serve::BatchConstraints;
using serve::Engine;
using serve::GraphId;
using serve::PlanCache;
using serve::PlanCacheOptions;
using serve::PlanKey;
using serve::Priority;
using serve::RequestStatus;
using serve::SchedRequest;
using serve::SchedulePolicy;
using serve::Scheduler;
using serve::SchedulerOptions;
using serve::ServeOptions;
using serve::ShedReason;
using serve::Ticket;

DenseMatrix features(index_t rows, index_t cols, std::uint64_t seed) {
  DenseMatrix b(rows, cols);
  kernels::fill_random(b, seed);
  return b;
}

// ---------------------------------------------------------------------------
// Admission control

TEST(Admission, GoldenThresholds) {
  AdmissionOptions opt;
  opt.max_pending = 8;  // best-effort sheds at 4, batch at 6, all at 8
  using P = Priority;
  using R = ShedReason;
  const struct {
    P p;
    std::size_t pending;
    bool admitted;
    R reason;
  } golden[] = {
      {P::Interactive, 0, true, R::None},  {P::Interactive, 7, true, R::None},
      {P::Interactive, 8, false, R::QueueFull},
      {P::Batch, 5, true, R::None},        {P::Batch, 6, false, R::PriorityShed},
      {P::Batch, 8, false, R::QueueFull},
      {P::BestEffort, 3, true, R::None},   {P::BestEffort, 4, false, R::PriorityShed},
      {P::BestEffort, 8, false, R::QueueFull},
  };
  for (const auto& g : golden) {
    const auto d = serve::admit_request(g.p, g.pending, opt);
    EXPECT_EQ(d.admitted, g.admitted)
        << serve::priority_name(g.p) << " at pending=" << g.pending;
    EXPECT_EQ(d.reason, g.reason)
        << serve::priority_name(g.p) << " at pending=" << g.pending;
  }
}

TEST(Admission, ControllerCountsPerClassOutcomes) {
  AdmissionOptions opt;
  opt.max_pending = 4;  // best-effort sheds at 2, batch at 3
  AdmissionController ctl(opt);
  EXPECT_TRUE(ctl.admit(Priority::Interactive, 0).admitted);
  EXPECT_TRUE(ctl.admit(Priority::BestEffort, 1).admitted);
  EXPECT_FALSE(ctl.admit(Priority::BestEffort, 2).admitted);
  EXPECT_TRUE(ctl.admit(Priority::Batch, 2).admitted);
  EXPECT_FALSE(ctl.admit(Priority::Batch, 3).admitted);
  EXPECT_FALSE(ctl.admit(Priority::Interactive, 4).admitted);

  const auto st = ctl.stats();
  EXPECT_EQ(st.admitted[0], 1u);
  EXPECT_EQ(st.admitted[1], 1u);
  EXPECT_EQ(st.admitted[2], 1u);
  EXPECT_EQ(st.shed[0], 1u);
  EXPECT_EQ(st.shed[1], 1u);
  EXPECT_EQ(st.shed[2], 1u);
  EXPECT_EQ(st.shed_queue_full, 1u);
  EXPECT_EQ(st.shed_priority, 2u);
  EXPECT_EQ(st.total_admitted(), 3u);
  EXPECT_EQ(st.total_shed(), 3u);
}

// ---------------------------------------------------------------------------
// Scheduler

SchedulerOptions drr_opts(index_t quantum) {
  SchedulerOptions opt;
  opt.policy = SchedulePolicy::DeficitRoundRobin;
  opt.quantum = quantum;
  return opt;
}

/// Enqueue `count` width-`n` requests on `graph` starting at `*seq`.
void load(Scheduler& s, std::uint64_t graph, int count, index_t n,
          std::uint64_t* seq, ReduceKind reduce = ReduceKind::Sum,
          Priority priority = Priority::Interactive) {
  for (int i = 0; i < count; ++i) {
    s.enqueue({(*seq)++, graph, n, reduce, priority});
  }
}

TEST(SchedulerDrr, HotAndWideGraphBatchSequenceGolden) {
  // g1 floods 40 width-8 requests; g2 owns two width-200 requests (wider
  // than the 64-column quantum, so each needs several rotations of
  // credit). The exact batch sequence is a golden: deterministic by
  // construction, and it shows g2 shipping *before* g1's backlog drains —
  // the anti-starvation property FIFO lacks.
  BatchConstraints lim;
  lim.max_batch_n = 256;
  lim.max_batch_requests = 8;
  Scheduler s(drr_opts(64), lim);
  std::uint64_t seq = 0;
  load(s, /*graph=*/1, 40, 8, &seq);       // seqs 0..39
  load(s, /*graph=*/2, 2, 200, &seq);      // seqs 40, 41

  std::vector<std::vector<std::uint64_t>> batches;
  while (!s.empty()) batches.push_back(s.next_batch());

  const std::vector<std::vector<std::uint64_t>> want = {
      {0, 1, 2, 3, 4, 5, 6, 7},        // g1, rotation 1 (quantum 64 = 8x8)
      {8, 9, 10, 11, 12, 13, 14, 15},  // g1 (g2 deferred: 64 < 200)
      {16, 17, 18, 19, 20, 21, 22, 23},  // g1 (g2 deferred: 128 < 200)
      {24, 25, 26, 27, 28, 29, 30, 31},  // g1 (g2 deferred: 192 < 200)
      {40},                              // g2: 256 >= 200 at last
      {32, 33, 34, 35, 36, 37, 38, 39},  // g1 drains
      {41},                              // g2 after three more rotations
  };
  EXPECT_EQ(batches, want);

  const auto st = s.stats();
  ASSERT_EQ(st.size(), 2u);
  EXPECT_EQ(st[0].graph, 1u);
  EXPECT_EQ(st[0].served, 40u);
  EXPECT_EQ(st[0].batches, 5u);
  EXPECT_EQ(st[0].deferred, 0u);
  EXPECT_EQ(st[0].served_width, 320u);
  EXPECT_EQ(st[1].graph, 2u);
  EXPECT_EQ(st[1].served, 2u);
  EXPECT_EQ(st[1].batches, 2u);
  EXPECT_EQ(st[1].deferred, 5u);  // 3 rotations for seq 40, 2 more for 41
  EXPECT_EQ(st[1].served_width, 400u);
  EXPECT_EQ(st[0].pending + st[1].pending, 0u);
}

TEST(SchedulerFifo, ServesHotBacklogBeforeColdGraph) {
  // Same workload under the v1 FIFO policy: the cold graph's requests
  // wait behind the entire hot backlog — the head-of-line blocking DRR
  // removes. This pins the baseline the fairness bench compares against.
  BatchConstraints lim;
  lim.max_batch_n = 256;
  lim.max_batch_requests = 8;
  SchedulerOptions opt;
  opt.policy = SchedulePolicy::Fifo;
  Scheduler s(opt, lim);
  std::uint64_t seq = 0;
  load(s, 1, 40, 8, &seq);
  load(s, 2, 2, 200, &seq);

  std::vector<std::vector<std::uint64_t>> batches;
  while (!s.empty()) batches.push_back(s.next_batch());
  ASSERT_EQ(batches.size(), 7u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(batches[static_cast<std::size_t>(i)].front(), static_cast<std::uint64_t>(8 * i));
  EXPECT_EQ(batches[5], (std::vector<std::uint64_t>{40}));
  EXPECT_EQ(batches[6], (std::vector<std::uint64_t>{41}));
  EXPECT_EQ(s.stats()[1].deferred, 0u);  // FIFO never defers
}

TEST(SchedulerDrr, PriorityOrdersWithinGraphAndReduceStillGates) {
  BatchConstraints lim;  // defaults: 256 wide, 16 requests
  Scheduler s(drr_opts(64), lim);
  s.enqueue({0, 7, 8, ReduceKind::Sum, Priority::BestEffort});
  s.enqueue({1, 7, 8, ReduceKind::Sum, Priority::Batch});
  s.enqueue({2, 7, 8, ReduceKind::Max, Priority::Interactive});
  s.enqueue({3, 7, 8, ReduceKind::Sum, Priority::Interactive});

  // The interactive Max request anchors first; no Sum request may ride
  // along (one semiring per launch). Then the remaining Sums coalesce in
  // (priority, seq) order.
  EXPECT_EQ(s.next_batch(), (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(s.next_batch(), (std::vector<std::uint64_t>{3, 1, 0}));
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerFifo, IsPriorityBlind) {
  // The v1 baseline keeps pure admission order: priorities only matter to
  // admission control, not FIFO dispatch.
  BatchConstraints lim;
  SchedulerOptions opt;
  opt.policy = SchedulePolicy::Fifo;
  Scheduler s(opt, lim);
  s.enqueue({0, 7, 8, ReduceKind::Sum, Priority::BestEffort});
  s.enqueue({1, 7, 8, ReduceKind::Sum, Priority::Batch});
  s.enqueue({2, 7, 8, ReduceKind::Max, Priority::Interactive});
  s.enqueue({3, 7, 8, ReduceKind::Sum, Priority::Interactive});
  EXPECT_EQ(s.next_batch(), (std::vector<std::uint64_t>{0, 1, 3}));
  EXPECT_EQ(s.next_batch(), (std::vector<std::uint64_t>{2}));
}

TEST(SchedulerFifo, OverWidthRequestIsSkippedAndANarrowerOneRidesAlong) {
  BatchConstraints lim;
  lim.max_batch_n = 96;
  lim.max_batch_requests = 3;
  SchedulerOptions opt;
  opt.policy = SchedulePolicy::Fifo;
  Scheduler s(opt, lim);
  s.enqueue({0, 7, 32, ReduceKind::Sum});
  s.enqueue({1, 7, 32, ReduceKind::Sum});
  s.enqueue({2, 7, 48, ReduceKind::Sum});
  s.enqueue({3, 7, 16, ReduceKind::Sum});
  // 32 + 32 = 64; the 48 would overflow the 96 cap and is skipped, not
  // blocking: the 16 behind it fits (80) and fills the request cap.
  EXPECT_EQ(s.next_batch(), (std::vector<std::uint64_t>{0, 1, 3}));
  EXPECT_EQ(s.next_batch(), (std::vector<std::uint64_t>{2}));
  EXPECT_TRUE(s.empty());

  // A request wider than the cap still ships, alone.
  s.enqueue({4, 7, 128, ReduceKind::Sum});
  s.enqueue({5, 7, 8, ReduceKind::Sum});
  EXPECT_EQ(s.next_batch(), (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(s.next_batch(), (std::vector<std::uint64_t>{5}));
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerFifo, MixedPriorityAndBatchOnlyGraphsAnchorGloballyOldest) {
  // Regression: next_batch_fifo used to read q[0].front().seq blindly —
  // undefined behavior when a graph's pending requests are all
  // batch/best-effort (interactive deque empty), and even with q[0]
  // non-empty it anchored on the oldest *interactive* request rather
  // than the globally oldest one. The fix scans every priority class.
  BatchConstraints lim;
  SchedulerOptions opt;
  opt.policy = SchedulePolicy::Fifo;
  Scheduler s(opt, lim);

  // Graph 1 holds only batch/best-effort work (the empty-q[0] UB shape);
  // graph 2's younger request is interactive.
  s.enqueue({0, 1, 8, ReduceKind::Sum, Priority::Batch});
  s.enqueue({1, 1, 8, ReduceKind::Sum, Priority::BestEffort});
  s.enqueue({2, 2, 8, ReduceKind::Sum, Priority::Interactive});

  // FIFO is priority-blind: the oldest request (batch-class, graph 1)
  // anchors and its best-effort sibling rides along; the interactive
  // request on graph 2 waits its turn.
  EXPECT_EQ(s.next_batch(), (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(s.next_batch(), (std::vector<std::uint64_t>{2}));

  // A graph whose q[0] is empty but whose batch class is *younger* than
  // another graph's interactive head must not win the anchor race.
  s.enqueue({3, 3, 8, ReduceKind::Sum, Priority::Interactive});
  s.enqueue({4, 4, 8, ReduceKind::Sum, Priority::BestEffort});
  EXPECT_EQ(s.next_batch(), (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(s.next_batch(), (std::vector<std::uint64_t>{4}));

  // Single graph, batch-only backlog: drains in admission order.
  s.enqueue({5, 5, 8, ReduceKind::Sum, Priority::Batch});
  s.enqueue({6, 5, 8, ReduceKind::Sum, Priority::Batch});
  EXPECT_EQ(s.next_batch(), (std::vector<std::uint64_t>{5, 6}));
  EXPECT_TRUE(s.empty());
}

TEST(SchedulerDrr, FairnessBoundPropertyUniformWidths) {
  // Property: with every graph continuously backlogged and per-graph
  // uniform request width w <= quantum, after R full rotations each graph
  // has served within one request width of R * quantum columns — the DRR
  // fairness bound, exact, over randomized configurations.
  sparse::SplitMix64 rng(20260729);
  const index_t quantum = 64;
  const int rotations = 5;
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t num_graphs = 2 + rng.next_below(4);  // 2..5
    BatchConstraints lim;
    lim.max_batch_n = 1024;
    lim.max_batch_requests = 512;
    Scheduler s(drr_opts(quantum), lim);
    std::vector<index_t> width(num_graphs);
    std::uint64_t seq = 0;
    for (std::size_t g = 0; g < num_graphs; ++g) {
      width[g] = 1 + static_cast<index_t>(rng.next_below(32));  // 1..32 <= quantum
      const int count = rotations * quantum / width[g] + 3;     // stays backlogged
      load(s, g + 1, count, width[g], &seq);
    }
    for (int call = 0; call < rotations * static_cast<int>(num_graphs); ++call) {
      ASSERT_FALSE(s.next_batch().empty());
    }
    const auto st = s.stats();
    ASSERT_EQ(st.size(), num_graphs);
    for (std::size_t g = 0; g < num_graphs; ++g) {
      ASSERT_GT(st[g].pending, 0u) << "trial " << trial << ": backlog drained early";
      const auto fair = static_cast<std::uint64_t>(rotations * quantum);
      EXPECT_GT(st[g].served_width + static_cast<std::uint64_t>(width[g]), fair)
          << "trial " << trial << " graph " << g << " under-served";
      EXPECT_LE(st[g].served_width, fair)
          << "trial " << trial << " graph " << g << " over-served";
      EXPECT_EQ(st[g].batches, static_cast<std::uint64_t>(rotations));
    }
  }
}

TEST(SchedulerDrr, RandomWorkloadDrainsExactlyOnce) {
  // Property: whatever the mix of graphs, widths, reductions and
  // priorities, draining the scheduler ships every request exactly once,
  // every batch is same-(graph, reduce), and batch count is bounded by
  // request count (no empty batches, no starvation-induced spinning).
  sparse::SplitMix64 rng(42);
  for (int trial = 0; trial < 15; ++trial) {
    BatchConstraints lim;
    lim.max_batch_n = 128;
    lim.max_batch_requests = 1 + static_cast<std::size_t>(rng.next_below(6));
    SchedulerOptions opt = drr_opts(32);
    Scheduler s(opt, lim);

    const ReduceKind kinds[] = {ReduceKind::Sum, ReduceKind::Max, ReduceKind::Mean};
    std::map<std::uint64_t, std::uint64_t> graph_of;   // seq -> graph
    std::map<std::uint64_t, ReduceKind> reduce_of;     // seq -> reduce
    std::uint64_t seq = 0;
    const std::size_t num_graphs = 1 + rng.next_below(4);
    const int total = 20 + static_cast<int>(rng.next_below(40));
    for (int i = 0; i < total; ++i) {
      SchedRequest r;
      r.seq = seq++;
      r.graph = 1 + rng.next_below(num_graphs);
      r.n = 1 + static_cast<index_t>(rng.next_below(40));  // may exceed quantum
      r.reduce = kinds[rng.next_below(3)];
      r.priority = static_cast<Priority>(rng.next_below(3));
      graph_of[r.seq] = r.graph;
      reduce_of[r.seq] = r.reduce;
      s.enqueue(r);
    }

    std::set<std::uint64_t> served;
    int batches = 0;
    while (!s.empty()) {
      const auto batch = s.next_batch();
      ASSERT_FALSE(batch.empty());
      ASSERT_LE(batch.size(), lim.max_batch_requests);
      ++batches;
      ASSERT_LE(batches, total) << "more batches than requests";
      for (const auto q : batch) {
        EXPECT_EQ(graph_of.at(q), graph_of.at(batch.front()));
        EXPECT_EQ(reduce_of.at(q), reduce_of.at(batch.front()));
        EXPECT_TRUE(served.insert(q).second) << "seq " << q << " served twice";
      }
    }
    EXPECT_EQ(served.size(), static_cast<std::size_t>(total));
    EXPECT_EQ(s.pending(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Plan-cache eviction

PlanCacheOptions cache_opts(std::size_t budget) {
  PlanCacheOptions opt;
  opt.autotune = false;  // fixed-rule builds keep these tests cheap
  opt.sample_blocks = 64;
  opt.max_entries = budget;
  return opt;
}

PlanKey key_for(std::uint64_t graph, index_t n) {
  return PlanKey{graph, "gtx1080ti", n, ReduceKind::Sum};
}

TEST(PlanCacheEviction, LruOrderGolden) {
  const Csr a = sparse::uniform_random(64, 64, 400, 801);
  const auto dev = gpusim::gtx1080ti();
  PlanCache cache(cache_opts(3));
  cache.lookup_or_build(key_for(1, 32), a, dev);
  cache.lookup_or_build(key_for(2, 32), a, dev);
  cache.lookup_or_build(key_for(3, 32), a, dev);
  cache.lookup_or_build(key_for(1, 32), a, dev);  // touch 1: LRU order 2,3,1
  cache.lookup_or_build(key_for(4, 32), a, dev);  // evicts 2

  const auto keys = cache.resident_keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0].graph, 3u);  // least recently used first
  EXPECT_EQ(keys[1].graph, 1u);
  EXPECT_EQ(keys[2].graph, 4u);

  const auto st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.inserts, 4u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 4u);
  EXPECT_EQ(st.size, 3u);
  EXPECT_EQ(st.peak_size, 3u);
  EXPECT_EQ(st.pinned, 0u);
}

TEST(PlanCacheEviction, PinnedPlanSurvivesFullBudget) {
  const Csr a = sparse::uniform_random(64, 64, 400, 802);
  const auto dev = gpusim::gtx1080ti();
  PlanCache cache(cache_opts(1));

  serve::PlanLease pinned = cache.acquire(key_for(1, 32), a, dev);
  ASSERT_TRUE(pinned.valid());
  EXPECT_TRUE(pinned.cached());
  EXPECT_EQ(cache.stats().pinned, 1u);

  // Budget full of pinned plans: the new plan is built and returned
  // uncached; the pinned resident survives and the budget holds.
  serve::PlanLease overflow = cache.acquire(key_for(2, 32), a, dev);
  ASSERT_TRUE(overflow.valid());
  EXPECT_FALSE(overflow.cached());
  EXPECT_GT(overflow->modelled_ms, 0.0);
  auto st = cache.stats();
  EXPECT_EQ(st.uncached_builds, 1u);
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_EQ(st.size, 1u);
  ASSERT_EQ(cache.resident_keys().size(), 1u);
  EXPECT_EQ(cache.resident_keys()[0].graph, 1u);

  // Unpin; the next insert may now evict the old resident.
  pinned.release();
  EXPECT_EQ(cache.stats().pinned, 0u);
  cache.lookup_or_build(key_for(2, 32), a, dev);
  st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.size, 1u);
  EXPECT_EQ(cache.resident_keys()[0].graph, 2u);
  EXPECT_LE(st.peak_size, 1u);  // the budget was never breached
}

TEST(PlanCacheEviction, BudgetOneThrashStaysCorrect) {
  // Two alternating keys under an entry budget of one: every lookup must
  // still return the exact plan an unbounded cache would, the budget must
  // hold at every observation point, and the churn is fully accounted.
  const Csr a = sparse::uniform_random(64, 64, 400, 803);
  const auto dev = gpusim::gtx1080ti();
  PlanCache cache(cache_opts(1));
  PlanCache reference(cache_opts(0));  // unbounded reference

  for (int round = 0; round < 10; ++round) {
    for (const std::uint64_t g : {std::uint64_t{1}, std::uint64_t{2}}) {
      // Distinct widths per key exercise requantization too.
      const index_t n = g == 1 ? 32 : 64;
      const auto got = cache.lookup_or_build(key_for(g, n), a, dev);
      const auto want = reference.lookup_or_build(key_for(g, n), a, dev);
      EXPECT_EQ(got->algo, want->algo);
      EXPECT_DOUBLE_EQ(got->modelled_ms, want->modelled_ms);
      EXPECT_LE(cache.size(), 1u);
    }
  }
  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 0u);  // every lookup evicted the other key
  EXPECT_EQ(st.misses, 20u);
  EXPECT_EQ(st.inserts, 20u);
  EXPECT_EQ(st.evictions, 19u);
  EXPECT_EQ(st.peak_size, 1u);
  EXPECT_EQ(reference.stats().hits, 18u);  // the unbounded cache reuses
}

// The miss ledger must reconcile exactly: every miss either inserted its
// build, handed it back uncached (budget full of pins / cache disabled),
// or lost the build race to a concurrent inserter (duplicate_builds). The
// selection counters (predicted/exact) count kept builds only — a racer's
// discarded build must not inflate them.
TEST(PlanCacheAccounting, MissLedgerReconcilesSequentially) {
  const Csr a = sparse::uniform_random(64, 64, 400, 804);
  const auto dev = gpusim::gtx1080ti();
  PlanCache cache(cache_opts(2));

  cache.lookup_or_build(key_for(1, 32), a, dev);  // miss -> insert
  cache.lookup_or_build(key_for(1, 32), a, dev);  // hit
  serve::PlanLease p1 = cache.acquire(key_for(2, 32), a, dev);  // miss
  serve::PlanLease p2 = cache.acquire(key_for(3, 32), a, dev);  // evicts 1
  // Budget now full of pinned plans: an uncached build.
  serve::PlanLease p3 = cache.acquire(key_for(4, 32), a, dev);
  EXPECT_FALSE(p3.cached());

  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 4u);
  EXPECT_EQ(st.inserts, 3u);
  EXPECT_EQ(st.uncached_builds, 1u);
  EXPECT_EQ(st.duplicate_builds, 0u);  // no concurrency, no races
  EXPECT_EQ(st.misses, st.inserts + st.uncached_builds + st.duplicate_builds);
}

TEST(PlanCacheAccounting, RacingBuildersReconcileAndKeepSelectionHonest) {
  // Hammer a single cold key from many threads: exactly one build is
  // kept; every loser must land in duplicate_builds, not in the selection
  // counters (the pre-fix accounting noted every racer's build, breaking
  // the predicted+exact == kept-builds identity).
  const Csr a = sparse::uniform_random(64, 64, 400, 805);
  const auto dev = gpusim::gtx1080ti();
  PlanCacheOptions opt;  // autotune on: builds go through selection
  opt.sample_blocks = 64;
  PlanCache cache(opt);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&] { cache.lookup_or_build(key_for(7, 32), a, dev); });
  }
  for (auto& th : threads) th.join();

  const auto st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(st.inserts, 1u);
  EXPECT_EQ(st.uncached_builds, 0u);
  EXPECT_EQ(st.misses, st.inserts + st.uncached_builds + st.duplicate_builds);
  // Kept builds only: however many threads raced, selection ran the
  // predictor exactly once for the one plan that survived.
  EXPECT_EQ(st.predicted_builds + st.exact_builds, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// Engine integration

ServeOptions scheduler_engine_opts() {
  ServeOptions opt;
  opt.devices = {gpusim::gtx1080ti()};
  opt.num_workers = 1;
  opt.start_paused = true;
  opt.plan.sample_blocks = 128;
  return opt;
}

TEST(ServeSchedulerEngine, ShedTicketContractIsStatusNotThrow) {
  auto opt = scheduler_engine_opts();
  opt.admission.max_pending = 4;  // best-effort sheds at 2, batch at 3
  Engine eng(opt);  // paused: submissions accumulate, nothing drains
  const Csr a = sparse::uniform_random(64, 64, 400, 810);
  const GraphId id = eng.register_graph(a);

  auto submit = [&](Priority p) {
    return eng.submit(id, features(a.cols, 8, 811), {.priority = p});
  };
  Ticket t1 = submit(Priority::Interactive);        // pending 0 -> admit
  Ticket t2 = submit(Priority::Interactive);        // pending 1 -> admit
  Ticket shed_be = submit(Priority::BestEffort);    // pending 2 -> shed
  Ticket t3 = submit(Priority::Batch);              // pending 2 -> admit
  Ticket shed_batch = submit(Priority::Batch);      // pending 3 -> shed
  Ticket t4 = submit(Priority::Interactive);        // pending 3 -> admit
  Ticket shed_full = submit(Priority::Interactive); // pending 4 -> queue full

  // A shed ticket is complete immediately; wait() returns a typed status
  // and never throws or blocks.
  for (const Ticket* t : {&shed_be, &shed_batch, &shed_full}) {
    ASSERT_TRUE(t->valid());
    EXPECT_TRUE(t->ready());
    const auto& res = t->wait();
    EXPECT_EQ(res.status, RequestStatus::Shed);
    EXPECT_EQ(res.c.rows(), 0);
    EXPECT_EQ(res.c.cols(), 0);
    EXPECT_EQ(res.batch_size, 0);
    EXPECT_EQ(res.modelled_ms, 0.0);
  }
  EXPECT_EQ(shed_be.wait().shed_reason, ShedReason::PriorityShed);
  EXPECT_EQ(shed_be.wait().priority, Priority::BestEffort);
  EXPECT_EQ(shed_batch.wait().shed_reason, ShedReason::PriorityShed);
  EXPECT_EQ(shed_full.wait().shed_reason, ShedReason::QueueFull);
  for (const Ticket* t : {&t1, &t2, &t3, &t4}) EXPECT_FALSE(t->ready());

  eng.shutdown();  // drains all four admitted requests

  const DenseMatrix want = testutil::reference_spmm(a, features(a.cols, 8, 811));
  for (const Ticket* t : {&t1, &t2, &t3, &t4}) {
    const auto& res = t->wait();
    EXPECT_EQ(res.status, RequestStatus::Ok);
    EXPECT_EQ(res.shed_reason, ShedReason::None);
    EXPECT_TRUE(testutil::bitwise_equal(res.c, want));
    EXPECT_GT(res.completed_at_ms, 0.0);
  }

  const auto st = eng.stats();
  EXPECT_EQ(st.submitted, 4u);
  EXPECT_EQ(st.completed, 4u);
  EXPECT_EQ(st.shed, 3u);
  EXPECT_EQ(st.admission.total_admitted(), 4u);
  EXPECT_EQ(st.admission.total_shed(), 3u);
  EXPECT_EQ(st.admission.shed_queue_full, 1u);
  EXPECT_EQ(st.admission.shed_priority, 2u);
}

/// Hot-burst + cold-trickle workload at one policy; returns (cold p95
/// completion stamp, total modelled ms) plus the full completion list.
struct FairnessRun {
  double cold_p95 = 0.0;
  double total_ms = 0.0;
  std::vector<double> completions;  // every request, submission order
};

FairnessRun run_fairness_workload(SchedulePolicy policy) {
  auto opt = scheduler_engine_opts();
  opt.scheduler.policy = policy;
  opt.plan.sample_blocks = 64;
  Engine eng(opt);
  const Csr hot = sparse::uniform_random(256, 256, 4096, 820);
  const Csr cold1 = sparse::uniform_random(256, 256, 2048, 821);
  const Csr cold2 = sparse::uniform_random(256, 256, 2048, 822);
  const GraphId hid = eng.register_graph(hot);
  const std::vector<GraphId> cold_ids = {eng.register_graph(cold1),
                                         eng.register_graph(cold2)};

  std::vector<Ticket> hot_tickets, cold_tickets;
  for (int r = 0; r < 24; ++r) {
    hot_tickets.push_back(eng.submit(hid, features(hot.cols, 16, 830 + r)));
  }
  for (int r = 0; r < 4; ++r) {
    for (std::size_t g = 0; g < cold_ids.size(); ++g) {
      cold_tickets.push_back(eng.submit(cold_ids[g],
                                        features(256, 16, 860 + 10 * static_cast<std::uint64_t>(g) + static_cast<std::uint64_t>(r))));
    }
  }
  eng.shutdown();

  FairnessRun out;
  std::vector<double> cold_times;
  for (const auto& t : hot_tickets) out.completions.push_back(t.wait().completed_at_ms);
  for (const auto& t : cold_tickets) {
    cold_times.push_back(t.wait().completed_at_ms);
    out.completions.push_back(t.wait().completed_at_ms);
  }
  std::sort(cold_times.begin(), cold_times.end());
  const std::size_t idx =
      (cold_times.size() * 95 + 99) / 100 == 0 ? 0 : (cold_times.size() * 95 + 99) / 100 - 1;
  out.cold_p95 = cold_times[idx];
  out.total_ms = eng.stats().modelled_ms;
  return out;
}

TEST(ServeSchedulerEngine, ColdGraphLatencyImprovesOverFifoWithinThroughputBand) {
  // The acceptance criterion, enforced at test scale: under a hot-burst +
  // cold-trickle mix, DRR improves the cold graphs' p95 modelled
  // completion stamp while total modelled device time (the throughput
  // denominator) stays within 10% of FIFO.
  const FairnessRun fifo = run_fairness_workload(SchedulePolicy::Fifo);
  const FairnessRun drr = run_fairness_workload(SchedulePolicy::DeficitRoundRobin);
  EXPECT_LT(drr.cold_p95, fifo.cold_p95)
      << "DRR must serve cold graphs ahead of the hot backlog";
  EXPECT_NEAR(drr.total_ms, fifo.total_ms, 0.10 * fifo.total_ms)
      << "fairness must not cost aggregate throughput";

  // Scheduling is deterministic: a repeat run reproduces every completion
  // stamp exactly (no tolerance).
  const FairnessRun again = run_fairness_workload(SchedulePolicy::DeficitRoundRobin);
  ASSERT_EQ(again.completions.size(), drr.completions.size());
  for (std::size_t i = 0; i < drr.completions.size(); ++i) {
    EXPECT_EQ(again.completions[i], drr.completions[i]) << "request " << i;
  }
}

TEST(ServeSchedulerEngine, PerGraphStatsExposed) {
  auto opt = scheduler_engine_opts();
  Engine eng(opt);
  const Csr g1 = sparse::uniform_random(64, 64, 400, 840);
  const Csr g2 = sparse::uniform_random(96, 96, 600, 841);
  const GraphId id1 = eng.register_graph(g1);
  const GraphId id2 = eng.register_graph(g2);
  for (int r = 0; r < 3; ++r) eng.submit(id1, features(g1.cols, 8, 850 + r));
  eng.submit(id2, features(g2.cols, 8, 859));
  eng.shutdown();

  const auto st = eng.stats();
  ASSERT_EQ(st.graphs.size(), 2u);  // first-submission order
  EXPECT_EQ(st.graphs[0].graph, id1.key);
  EXPECT_EQ(st.graphs[0].enqueued, 3u);
  EXPECT_EQ(st.graphs[0].served, 3u);
  EXPECT_EQ(st.graphs[0].pending, 0u);
  EXPECT_EQ(st.graphs[1].graph, id2.key);
  EXPECT_EQ(st.graphs[1].served, 1u);
  const std::uint64_t total_served = st.graphs[0].served + st.graphs[1].served;
  EXPECT_EQ(total_served, st.completed);
}

}  // namespace
}  // namespace gespmm
