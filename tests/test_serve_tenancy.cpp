/// Multi-tenant serving contracts: deadline admission goldens and their
/// precedence over occupancy shedding, deadline-met boundary semantics on
/// the virtual clock, tenant roster validation, weighted-DRR fairness
/// (scheduler goldens plus a property sweep), per-tenant stats, and the
/// EngineStats counting-contract golden.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/gespmm.hpp"
#include "serve/engine.hpp"
#include "sparse/rng.hpp"
#include "test_util.hpp"

namespace gespmm {
namespace {

using serve::AdmissionOptions;
using serve::Engine;
using serve::GraphId;
using serve::Priority;
using serve::SchedRequest;
using serve::Scheduler;
using serve::SchedulerOptions;
using serve::ServeOptions;
using serve::ShedReason;
using serve::TenantConfig;
using serve::Ticket;

DenseMatrix features(index_t rows, index_t cols, std::uint64_t seed) {
  DenseMatrix b(rows, cols);
  kernels::fill_random(b, seed);
  return b;
}

/// One-device, one-worker, paused options (deterministic batches).
ServeOptions det_opts() {
  ServeOptions opt;
  opt.devices = {gpusim::gtx1080ti()};
  opt.num_workers = 1;
  opt.start_paused = true;
  opt.plan.sample_blocks = 256;
  return opt;
}

// ---------------------------------------------------------------------------
// Deadline admission: pure-policy goldens.

TEST(DeadlineAdmission, ExpiredDeadlineShedsBeforeOccupancy) {
  AdmissionOptions opt;
  opt.max_pending = 4;
  // Queue hard-full AND deadline expired: the deadline verdict wins, for
  // every class — the request could never complete, whatever the queue.
  for (auto p : {Priority::Interactive, Priority::Batch,
                 Priority::BestEffort}) {
    const auto d = serve::admit_request(p, /*pending=*/4, opt, {},
                                        /*deadline_ms=*/1.0, /*now_ms=*/2.0);
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, ShedReason::DeadlineExceeded);
  }
  // Same occupancy, live deadline: the usual queue-full shed.
  const auto d = serve::admit_request(Priority::Interactive, 4, opt, {},
                                      /*deadline_ms=*/9.0, /*now_ms=*/2.0);
  EXPECT_EQ(d.reason, ShedReason::QueueFull);
}

TEST(DeadlineAdmission, BoundaryGoldens) {
  const AdmissionOptions opt;  // empty queue: only the deadline can shed
  // deadline == now is already too late (completion stamps are >= now).
  EXPECT_EQ(serve::admit_request(Priority::Interactive, 0, opt, {}, 5.0, 5.0)
                .reason,
            ShedReason::DeadlineExceeded);
  // A deadline any amount ahead of the clock admits.
  EXPECT_TRUE(serve::admit_request(Priority::Interactive, 0, opt, {},
                                   5.0 + 1e-9, 5.0)
                  .admitted);
  // 0 means "no deadline", even with the clock far along.
  EXPECT_TRUE(
      serve::admit_request(Priority::Interactive, 0, opt, {}, 0.0, 1e9)
          .admitted);
}

TEST(DeadlineAdmission, ControllerCountsDeadlineSheds) {
  serve::AdmissionController ctl({.max_pending = 4});
  ctl.admit(Priority::Interactive, 0);                      // admitted
  ctl.admit(Priority::Batch, 0, {}, /*deadline=*/1.0, 2.0); // deadline shed
  ctl.admit(Priority::BestEffort, 4);                       // queue-full shed
  EXPECT_EQ(ctl.stats().total_admitted(), 1u);
  EXPECT_EQ(ctl.stats().total_shed(), 2u);
  EXPECT_EQ(ctl.stats().shed_deadline, 1u);
  EXPECT_EQ(ctl.stats().shed_queue_full, 1u);
}

// ---------------------------------------------------------------------------
// Deadlines on the live engine's virtual clock.

TEST(DeadlineEngine, ExpiredAtSubmitShedsWithTypedStatus) {
  Engine eng(det_opts());
  const Csr a = sparse::uniform_random(256, 256, 2048, 611);
  const GraphId id = eng.register_graph(a);

  // Advance the virtual clock by completing one request.
  Ticket warm = eng.submit(id, features(a.cols, 16, 612));
  eng.start();
  const double now = warm.wait().completed_at_ms;
  ASSERT_GT(now, 0.0);
  EXPECT_EQ(eng.virtual_now_ms(), now);

  // A deadline at or before the clock sheds at submit: the ticket is
  // complete immediately, typed, and deadline_met is false.
  Ticket late = eng.submit(id, features(a.cols, 16, 613),
                           {.deadline_ms = now * 0.5});
  EXPECT_TRUE(late.ready());
  const auto& res = late.wait();
  EXPECT_EQ(res.status, serve::RequestStatus::Shed);
  EXPECT_EQ(res.shed_reason, ShedReason::DeadlineExceeded);
  EXPECT_FALSE(res.deadline_met);
  EXPECT_EQ(res.deadline_ms, now * 0.5);

  const auto st = eng.stats();
  EXPECT_EQ(st.shed, 1u);
  EXPECT_EQ(st.admission.shed_deadline, 1u);
  EXPECT_EQ(st.deadline_missed, 0u) << "shed requests never ran";
}

TEST(DeadlineEngine, CompletingExactlyAtDeadlineIsMet) {
  const Csr a = sparse::uniform_random(256, 256, 2048, 620);

  // Learn the deterministic completion stamp on a throwaway engine.
  double stamp = 0.0;
  {
    Engine probe(det_opts());
    Ticket t = probe.submit(probe.register_graph(a), features(a.cols, 16, 621));
    probe.start();
    stamp = t.wait().completed_at_ms;
    ASSERT_GT(stamp, 0.0);
  }

  // Replay with the deadline exactly at the stamp: met (<=, not <).
  {
    Engine eng(det_opts());
    Ticket t = eng.submit(eng.register_graph(a), features(a.cols, 16, 621),
                          {.deadline_ms = stamp});
    eng.start();
    const auto& res = t.wait();
    ASSERT_EQ(res.status, serve::RequestStatus::Ok);
    EXPECT_EQ(res.completed_at_ms, stamp) << "replay must be deterministic";
    EXPECT_TRUE(res.deadline_met);
    EXPECT_EQ(eng.stats().deadline_missed, 0u);
  }

  // Replay with a deadline the clock passes mid-flight: admitted (it was
  // live at submit), served, but reported late.
  {
    Engine eng(det_opts());
    Ticket t = eng.submit(eng.register_graph(a), features(a.cols, 16, 621),
                          {.deadline_ms = stamp * 0.5});
    eng.start();
    const auto& res = t.wait();
    ASSERT_EQ(res.status, serve::RequestStatus::Ok);
    EXPECT_FALSE(res.deadline_met);
    EXPECT_EQ(eng.stats().deadline_missed, 1u);
  }
}

// ---------------------------------------------------------------------------
// Tenant roster validation.

TEST(Tenancy, UnknownTenantThrowsInvalidArgument) {
  Engine eng(det_opts());  // roster: {"default"}
  const Csr a = testutil::zoo_empty_rows();
  const GraphId id = eng.register_graph(a);
  EXPECT_THROW(eng.submit(id, features(a.cols, 4, 700), {.tenant = "nope"}),
               std::invalid_argument);
  // The failed submit counted nowhere.
  EXPECT_EQ(eng.stats().submitted, 0u);
  EXPECT_EQ(eng.stats().shed, 0u);
}

TEST(Tenancy, RosterValidationAtConstruction) {
  auto with_share = [](double s) {
    ServeOptions opt = det_opts();
    opt.tenants = {{"t", {.share = s}}};
    return opt;
  };
  EXPECT_THROW(Engine{with_share(0.0)}, std::invalid_argument);
  EXPECT_THROW(Engine{with_share(-1.0)}, std::invalid_argument);
  EXPECT_THROW(Engine{with_share(std::numeric_limits<double>::quiet_NaN())},
               std::invalid_argument);
  EXPECT_THROW(Engine{with_share(std::numeric_limits<double>::infinity())},
               std::invalid_argument);

  ServeOptions empty = det_opts();
  empty.tenants.clear();
  EXPECT_THROW(Engine{empty}, std::invalid_argument);

  EXPECT_NO_THROW(Engine{with_share(0.25)});
}

TEST(Tenancy, SchedulerRejectsInvalidShares) {
  const SchedulerOptions opt;
  EXPECT_THROW((Scheduler{opt, {}, {1.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW((Scheduler{opt, {}, {1.0, std::numeric_limits<double>::quiet_NaN()}}),
               std::invalid_argument);
}

TEST(Tenancy, OversizedShareRejectedBeforeGrantOverflows) {
  // At the default quantum (256), a share of 3e6 makes 4 x grant overflow
  // index_t and a share of 1e7 wraps the grant itself negative, which
  // would starve the heaviest tenant. Both are rejected up front, by the
  // Scheduler and therefore by the Engine; 1e6 is still in range.
  const SchedulerOptions opt;
  auto with_shares = [](double big) {
    ServeOptions o = det_opts();
    o.tenants = {{"big", {.share = big}}, {"small", {.share = 1.0}}};
    return o;
  };
  for (const double big : {3e6, 1e7}) {
    EXPECT_THROW((Scheduler{opt, {}, {1.0, big}}), std::invalid_argument) << big;
    EXPECT_THROW(Engine{with_shares(big)}, std::invalid_argument) << big;
  }
  // A tenant beyond the share vector weighs 1.0, so the quantum alone is
  // bounded the same way.
  SchedulerOptions huge;
  huge.quantum = std::numeric_limits<index_t>::max() / 4;
  EXPECT_THROW(Scheduler{huge}, std::invalid_argument);

  // Two backlogged queues of 64-wide requests: both tenants are served.
  Scheduler sched(opt, {}, {1.0, 1e6});
  for (std::uint64_t seq = 0; seq < 400; ++seq) {
    sched.enqueue({seq, /*graph=*/1, /*n=*/64, ReduceKind::Sum,
                   Priority::Interactive, false, static_cast<std::uint32_t>(seq % 2)});
  }
  std::uint64_t width[2] = {0, 0};
  for (int b = 0; b < 40; ++b) {
    const auto batch = sched.next_batch();
    ASSERT_FALSE(batch.empty());
    for (const std::uint64_t s : batch) width[s % 2] += 64;
  }
  EXPECT_GT(width[0], 0u);
  EXPECT_GE(width[1], width[0]) << "the share-1e6 tenant is served at least as much";

  Engine eng(with_shares(1e6));
  const Csr a = testutil::zoo_uniform();
  const GraphId id = eng.register_graph(a);
  Ticket big = eng.submit(id, features(a.cols, 16, 710), {.tenant = "big"});
  Ticket small = eng.submit(id, features(a.cols, 16, 711), {.tenant = "small"});
  eng.shutdown();
  EXPECT_EQ(big.wait().status, serve::RequestStatus::Ok);
  EXPECT_EQ(small.wait().status, serve::RequestStatus::Ok);
}

// ---------------------------------------------------------------------------
// Weighted DRR: scheduler-level golden + property sweep.

TEST(WeightedDrr, SharesScaleServedWidthGolden) {
  SchedulerOptions opt;
  opt.quantum = 32;
  Scheduler sched(opt, {}, {3.0, 1.0});  // tenant 0 earns 96/visit, tenant 1: 32

  // Two backlogged (same-graph, different-tenant) queues of width-32
  // requests: per ring rotation tenant 0 ships 3 requests' width for
  // tenant 1's one.
  std::uint64_t seq = 0;
  for (int i = 0; i < 12; ++i) {
    sched.enqueue({seq, /*graph=*/1, /*n=*/32, ReduceKind::Sum,
                   Priority::Interactive, false, /*tenant=*/0});
    ++seq;
    sched.enqueue({seq, 1, 32, ReduceKind::Sum, Priority::Interactive, false,
                   /*tenant=*/1});
    ++seq;
  }

  // Drain the first rotations and tally width per tenant while both
  // queues stay backlogged (stop before either runs dry).
  std::uint64_t width0 = 0, width1 = 0;
  while (width0 + width1 < 32 * 12) {
    const auto batch = sched.next_batch();
    ASSERT_FALSE(batch.empty());
    for (std::uint64_t s : batch) {
      (s % 2 == 0 ? width0 : width1) += 32;  // even seqs = tenant 0
    }
  }
  EXPECT_EQ(width0, 32u * 9u);
  EXPECT_EQ(width1, 32u * 3u);
}

TEST(WeightedDrr, PropertySweepServesProportionallyUnderBacklog) {
  // Random widths, three tenants with shares 1/2/4: over a long
  // backlogged window each tenant's served width tracks its share.
  sparse::SplitMix64 rng(0xfa1234);
  SchedulerOptions opt;
  opt.quantum = 64;
  Scheduler sched(opt, {}, {1.0, 2.0, 4.0});

  std::vector<std::uint32_t> tenant_of;
  std::uint64_t seq = 0;
  for (int i = 0; i < 600; ++i) {
    const auto tenant = static_cast<std::uint32_t>(rng.next_below(3));
    const auto n = static_cast<index_t>(1 + rng.next_below(48));
    sched.enqueue({seq, /*graph=*/7, n, ReduceKind::Sum, Priority::Batch,
                   false, tenant});
    tenant_of.push_back(tenant);
    ++seq;
  }

  // Serve roughly half the backlog so every queue stays non-empty, then
  // compare per-tenant served width against the share-implied split.
  const auto before = sched.pending();
  while (sched.pending() > before / 2) {
    ASSERT_FALSE(sched.next_batch().empty());
  }
  double width[3] = {0, 0, 0};
  for (const auto& g : sched.stats()) {
    width[g.tenant] += static_cast<double>(g.served_width);
  }
  const double total = width[0] + width[1] + width[2];
  ASSERT_GT(total, 0.0);
  EXPECT_NEAR(width[0] / total, 1.0 / 7.0, 0.06);
  EXPECT_NEAR(width[1] / total, 2.0 / 7.0, 0.06);
  EXPECT_NEAR(width[2] / total, 4.0 / 7.0, 0.06);
}

TEST(WeightedDrr, SingleDefaultTenantMatchesUnweightedGolden) {
  // share-1.0 single tenant must reproduce the unweighted scheduler's
  // batch sequence exactly (the bitwise back-compat contract).
  auto run = [](std::vector<double> shares) {
    SchedulerOptions opt;
    opt.quantum = 64;
    Scheduler sched(opt, {}, std::move(shares));
    sparse::SplitMix64 rng(0xbeef);
    for (std::uint64_t s = 0; s < 200; ++s) {
      sched.enqueue({s, 1 + rng.next_below(3),
                     static_cast<index_t>(1 + rng.next_below(32)),
                     ReduceKind::Sum,
                     static_cast<Priority>(rng.next_below(3)), false, 0});
    }
    std::vector<std::vector<std::uint64_t>> seqs;
    while (!sched.empty()) seqs.push_back(sched.next_batch());
    return seqs;
  };
  EXPECT_EQ(run({}), run({1.0}));
}

// ---------------------------------------------------------------------------
// Per-tenant engine stats and the EngineStats counting contract.

TEST(Tenancy, PerTenantStatsPartitionTotals) {
  ServeOptions opt = det_opts();
  opt.tenants = {{"alpha", {.share = 3.0}}, {"beta", {.share = 1.0}}};
  opt.admission.max_pending = 4;
  Engine eng(opt);
  const Csr a = sparse::uniform_random(128, 128, 1024, 800);
  const GraphId id = eng.register_graph(a);

  // 2 alpha admits, 1 beta admit, then overflow sheds (queue fills at 4;
  // the 5th submit sheds queue-full on beta).
  (void)eng.submit(id, features(a.cols, 8, 801), {.tenant = "alpha"});
  (void)eng.submit(id, features(a.cols, 8, 802), {.tenant = "alpha"});
  (void)eng.submit(id, features(a.cols, 8, 803), {.tenant = "beta"});
  (void)eng.submit(id, features(a.cols, 8, 804), {.tenant = "beta"});
  Ticket shed = eng.submit(id, features(a.cols, 8, 805), {.tenant = "beta"});
  EXPECT_EQ(shed.wait().status, serve::RequestStatus::Shed);
  EXPECT_EQ(shed.wait().tenant, "beta");
  eng.shutdown();

  const auto st = eng.stats();
  ASSERT_EQ(st.tenants.size(), 2u);
  EXPECT_EQ(st.tenants[0].tenant, "alpha");  // sorted-name order
  EXPECT_EQ(st.tenants[1].tenant, "beta");
  EXPECT_EQ(st.tenants[0].share, 3.0);
  EXPECT_EQ(st.tenants[0].submitted, 2u);
  EXPECT_EQ(st.tenants[1].submitted, 2u);
  EXPECT_EQ(st.tenants[1].shed, 1u);
  EXPECT_EQ(st.tenants[0].shed, 0u);
  EXPECT_EQ(st.tenants[0].completed + st.tenants[1].completed, st.completed);
  EXPECT_EQ(st.tenants[0].submitted + st.tenants[1].submitted, st.submitted);
  EXPECT_EQ(st.tenants[0].shed + st.tenants[1].shed, st.shed);
  EXPECT_EQ(st.tenants[0].served_width, 16u);  // two width-8 requests
}

TEST(Tenancy, EngineStatsCountingContract) {
  // The golden that pins the EngineStats counting contract: every submit
  // lands in exactly one of submitted/shed, model_requests is a subset of
  // submitted (not a third bucket), admission totals agree, and after a
  // drain completed == submitted.
  ServeOptions opt = det_opts();
  opt.admission.max_pending = 6;
  Engine eng(opt);
  const Csr a = sparse::uniform_random(128, 128, 1024, 810);
  const GraphId id = eng.register_graph(a);
  const serve::ModelId mid = eng.register_model(
      id, serve::make_model_spec(serve::ServedModelKind::Gcn, 8, 8, 4, 2));

  // 4 plain admits + 2 model admits fill the queue; two more submits of
  // each kind shed queue-full. 8 calls total.
  for (int i = 0; i < 4; ++i) {
    (void)eng.submit(id, features(a.cols, 8, 811 + static_cast<std::uint64_t>(i)));
  }
  (void)eng.submit_model(mid, features(a.rows, 8, 815));
  (void)eng.submit_model(mid, features(a.rows, 8, 816));
  Ticket s1 = eng.submit(id, features(a.cols, 8, 817));
  Ticket s2 = eng.submit_model(mid, features(a.rows, 8, 818));
  EXPECT_EQ(s1.wait().status, serve::RequestStatus::Shed);
  EXPECT_EQ(s2.wait().status, serve::RequestStatus::Shed);
  eng.shutdown();  // drains the six admitted requests

  const auto st = eng.stats();
  EXPECT_EQ(st.submitted, 6u);
  EXPECT_EQ(st.shed, 2u);
  EXPECT_EQ(st.completed, st.submitted) << "drain completes every admit";
  EXPECT_EQ(st.model_requests, 2u) << "model admits only; subset of submitted";
  EXPECT_LE(st.model_requests, st.submitted);
  EXPECT_EQ(st.admission.total_admitted(), st.submitted);
  EXPECT_EQ(st.admission.total_shed(), st.shed);
  // Per-tenant rows partition the same totals (single default tenant).
  ASSERT_EQ(st.tenants.size(), 1u);
  EXPECT_EQ(st.tenants[0].submitted, st.submitted);
  EXPECT_EQ(st.tenants[0].completed, st.completed);
  EXPECT_EQ(st.tenants[0].shed, st.shed);
  // Every request ran on the single device exactly once (no sharding).
  ASSERT_EQ(st.devices.size(), 1u);
  EXPECT_EQ(st.devices[0].requests, st.completed);
}

}  // namespace
}  // namespace gespmm
