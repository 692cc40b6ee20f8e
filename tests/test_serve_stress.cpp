/// Stress layer for the serving scheduler (ctest label: stress): many
/// producer threads x a random graph/width/reduce/priority mix x random
/// shutdown points. Invariants, whatever interleaving the scheduler and
/// admission controller see:
///  - no deadlock (the suite finishes; ctest enforces a hard timeout),
///  - no lost tickets: every ticket returned by submit() completes — Ok
///    after the shutdown drain, or Shed already at submit,
///  - bitwise-equal outputs vs. a serial replay: each Ok result equals
///    `spmm_host_reference` recomputed alone from the request's seed,
///  - conservation: admitted == completed, per-graph served sums match,
///  - the plan-cache entry budget holds at every observation point.
///
/// Runtime is bounded by construction (small graphs, 64-block sampling);
/// the ctest entry carries TIMEOUT 120 and CI runs it in its own shard.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/gespmm.hpp"
#include "serve/engine.hpp"
#include "sparse/rng.hpp"
#include "test_util.hpp"

namespace gespmm {
namespace {

using serve::Engine;
using serve::GraphId;
using serve::Priority;
using serve::RequestStatus;
using serve::ServeOptions;
using serve::ShedReason;
using serve::Ticket;

struct Submission {
  std::size_t graph_idx = 0;
  index_t n = 0;
  ReduceKind reduce = ReduceKind::Sum;
  std::uint64_t seed = 0;
  Ticket ticket;
  /// False when submit() threw std::runtime_error (engine already shut
  /// down when the producer raced past the stop).
  bool accepted_by_submit = false;
};

struct StressConfig {
  std::uint64_t seed = 1;
  int threads = 6;
  int per_thread = 32;
  /// Call shutdown() once this many submissions happened; -1 = only after
  /// every producer finished (pure drain).
  int shutdown_after = -1;
  std::size_t max_pending = 48;
  std::size_t plan_budget = 4;
};

void run_stress(const StressConfig& cfg) {
  const std::vector<Csr> graphs = {
      sparse::uniform_random(64, 64, 400, cfg.seed * 7 + 1),
      sparse::uniform_random(96, 80, 500, cfg.seed * 7 + 2),
      testutil::zoo_skewed(),
  };

  ServeOptions opt;  // both devices
  opt.num_workers = 2;
  opt.plan.sample_blocks = 64;
  opt.plan.max_entries = cfg.plan_budget;
  opt.admission.max_pending = cfg.max_pending;
  Engine eng(opt);
  std::vector<GraphId> ids;
  ids.reserve(graphs.size());
  for (const auto& g : graphs) ids.push_back(eng.register_graph(g));

  const ReduceKind kinds[] = {ReduceKind::Sum, ReduceKind::Sum, ReduceKind::Max,
                              ReduceKind::Mean};
  std::atomic<int> submissions{0};
  std::vector<std::vector<Submission>> subs(static_cast<std::size_t>(cfg.threads));
  std::vector<std::thread> producers;
  producers.reserve(static_cast<std::size_t>(cfg.threads));
  for (int t = 0; t < cfg.threads; ++t) {
    producers.emplace_back([&, t] {
      sparse::SplitMix64 rng(cfg.seed ^ (0x9e3779b9ull + 1000003ull * static_cast<std::uint64_t>(t)));
      for (int r = 0; r < cfg.per_thread; ++r) {
        Submission s;
        s.graph_idx = rng.next_below(graphs.size());
        s.n = 1 + static_cast<index_t>(rng.next_below(24));
        s.reduce = kinds[rng.next_below(4)];
        s.seed = rng.next();
        DenseMatrix b(graphs[s.graph_idx].cols, s.n);
        kernels::fill_random(b, s.seed);
        try {
          s.ticket = eng.submit(
              ids[s.graph_idx], std::move(b),
              {.reduce = s.reduce,
               .priority = static_cast<Priority>(rng.next_below(3))});
          s.accepted_by_submit = true;
        } catch (const std::runtime_error&) {
          s.accepted_by_submit = false;  // raced past shutdown — allowed
        }
        subs[static_cast<std::size_t>(t)].push_back(std::move(s));
        submissions.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  if (cfg.shutdown_after >= 0) {
    // A random-ish stop point concurrent with live producers.
    while (submissions.load(std::memory_order_relaxed) < cfg.shutdown_after) {
      std::this_thread::yield();
    }
    eng.shutdown();
  }
  for (auto& p : producers) p.join();
  eng.shutdown();  // idempotent; pure-drain path when shutdown_after < 0

  // --- Invariants -----------------------------------------------------
  std::uint64_t ok = 0, shed = 0, refused = 0;
  for (const auto& per_thread : subs) {
    for (const auto& s : per_thread) {
      if (!s.accepted_by_submit) {
        ++refused;
        EXPECT_FALSE(s.ticket.valid());
        continue;
      }
      // No lost tickets: every accepted submission completed.
      ASSERT_TRUE(s.ticket.valid());
      ASSERT_TRUE(s.ticket.ready());
      const auto& res = s.ticket.wait();
      if (res.status == RequestStatus::Shed) {
        ++shed;
        EXPECT_NE(res.shed_reason, ShedReason::None);
        EXPECT_EQ(res.c.rows(), 0);
        EXPECT_EQ(res.batch_size, 0);
        continue;
      }
      ++ok;
      // Serial replay: regenerate the request from its seed and compare
      // byte for byte against the sequential reference.
      const Csr& g = graphs[s.graph_idx];
      DenseMatrix b(g.cols, s.n);
      kernels::fill_random(b, s.seed);
      EXPECT_TRUE(testutil::bitwise_equal(res.c, testutil::reference_spmm(g, b, s.reduce)))
          << "graph " << s.graph_idx << " n=" << s.n << " seed=" << s.seed;
      EXPECT_GT(res.completed_at_ms, 0.0);
      EXPECT_GE(res.batch_size, 1);
    }
  }
  const std::uint64_t total =
      static_cast<std::uint64_t>(cfg.threads) * static_cast<std::uint64_t>(cfg.per_thread);
  EXPECT_EQ(ok + shed + refused, total);

  const auto st = eng.stats();
  EXPECT_EQ(st.submitted, ok);
  EXPECT_EQ(st.completed, ok);
  EXPECT_EQ(st.shed, shed);
  EXPECT_EQ(st.admission.total_admitted(), ok);
  EXPECT_EQ(st.admission.total_shed(), shed);
  std::uint64_t served = 0, still_pending = 0;
  for (const auto& g : st.graphs) {
    served += g.served;
    still_pending += g.pending;
  }
  EXPECT_EQ(served, ok);
  EXPECT_EQ(still_pending, 0u);
  std::uint64_t device_requests = 0;
  for (const auto& d : st.devices) device_requests += d.requests;
  EXPECT_EQ(device_requests, ok);

  // The plan-cache budget is a hard ceiling at every observation point.
  const auto pc = eng.plan_cache().stats();
  EXPECT_LE(pc.size, cfg.plan_budget);
  EXPECT_LE(pc.peak_size, cfg.plan_budget);
  EXPECT_EQ(pc.pinned, 0u);  // every lease released with its batch

  // Admission is closed for good.
  EXPECT_THROW(eng.submit(ids[0], DenseMatrix(graphs[0].cols, 4)),
               std::runtime_error);
}

TEST(ServeStress, DrainAfterFullSubmission) {
  StressConfig cfg;
  cfg.seed = 11;
  cfg.shutdown_after = -1;
  run_stress(cfg);
}

TEST(ServeStress, ShutdownMidStream) {
  StressConfig cfg;
  cfg.seed = 22;
  cfg.shutdown_after = 40;
  run_stress(cfg);
}

TEST(ServeStress, ShutdownAlmostImmediately) {
  StressConfig cfg;
  cfg.seed = 33;
  cfg.shutdown_after = 5;
  cfg.plan_budget = 2;
  run_stress(cfg);
}

TEST(ServeStress, TinyQueueHeavySheddingAndCacheThrash) {
  StressConfig cfg;
  cfg.seed = 44;
  cfg.max_pending = 6;  // most traffic sheds; survivors must stay exact
  cfg.plan_budget = 1;  // budget=1 thrash under concurrency
  run_stress(cfg);
}

}  // namespace
}  // namespace gespmm
