/// The batched SpMM serving engine: fingerprint identity, plan-cache
/// reuse, batch coalescing correctness against the sequential reference,
/// concurrent-submission determinism, and shutdown draining.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <iterator>
#include <thread>

#include "core/gespmm.hpp"
#include "serve/delta.hpp"
#include "serve/engine.hpp"
#include "serve/model_plan.hpp"
#include "test_util.hpp"

namespace gespmm {
namespace {

using serve::Engine;
using serve::GraphId;
using serve::ServeOptions;
using serve::Ticket;

/// One-device, one-worker, paused options: batch composition (and thus
/// every counter) is deterministic once all submissions precede start().
ServeOptions deterministic_opts() {
  ServeOptions opt;
  opt.devices = {gpusim::gtx1080ti()};
  opt.num_workers = 1;
  opt.start_paused = true;
  opt.plan.sample_blocks = 256;
  return opt;
}

DenseMatrix features(index_t rows, index_t cols, std::uint64_t seed) {
  DenseMatrix b(rows, cols);
  kernels::fill_random(b, seed);
  return b;
}

TEST(Fingerprint, IdentifiesStructureAndValues) {
  const Csr a = sparse::uniform_random(128, 128, 1024, 901);
  Csr b = a;
  EXPECT_EQ(serve::fingerprint(a), serve::fingerprint(b));
  EXPECT_EQ(serve::fingerprint(a).key(), serve::fingerprint(b).key());

  b.val[17] += 1.0f;  // same structure, different weights
  EXPECT_NE(serve::fingerprint(a), serve::fingerprint(b));

  const Csr c = sparse::uniform_random(128, 128, 1024, 902);
  EXPECT_NE(serve::fingerprint(a).key(), serve::fingerprint(c).key());

  // Same (rows, cols, nnz) but different skew: the histogram must differ.
  std::vector<index_t> ur, uc, sr, sc;
  std::vector<value_t> uv, sv;
  for (index_t i = 0; i < 64; ++i) {        // uniform: 8 nnz per row
    for (index_t j = 0; j < 8; ++j) {
      ur.push_back(i);
      uc.push_back(8 * i + j);
      uv.push_back(1.0f);
    }
  }
  for (index_t j = 0; j < 456; ++j) {       // skewed: one hub row...
    sr.push_back(0);
    sc.push_back(j);
    sv.push_back(1.0f);
  }
  for (index_t i = 1; i <= 56; ++i) {       // ...plus 56 single-entry rows
    sr.push_back(i);
    sc.push_back(i);
    sv.push_back(1.0f);
  }
  const Csr uniform = sparse::csr_from_triplets(64, 512, ur, uc, uv);
  const Csr star = sparse::csr_from_triplets(64, 512, sr, sc, sv);
  ASSERT_EQ(uniform.nnz(), star.nnz());
  EXPECT_NE(serve::fingerprint(uniform).histogram_hash,
            serve::fingerprint(star).histogram_hash);
}

TEST(Fingerprint, RowLengthBucketBoundaryGoldens) {
  // The histogram contract is half-open: bucket 0 counts empty rows,
  // bucket b >= 1 counts rows with 2^(b-1) <= nnz < 2^b (bit_width
  // semantics — a power-of-two length 2^k opens bucket k+1, it does not
  // close bucket k). These goldens pin the boundary behavior so the
  // histogram hash stays a stable identity.
  const auto one_row = [](index_t len) {
    std::vector<index_t> r, c;
    std::vector<value_t> v;
    for (index_t j = 0; j < len; ++j) {
      r.push_back(0);
      c.push_back(j);
      v.push_back(1.0f);
    }
    return sparse::csr_from_triplets(1, 2048, r, c, v);
  };
  const auto hist = [&](index_t len) {
    return serve::fingerprint(one_row(len)).histogram_hash;
  };

  // Same bucket: [2^(b-1), 2^b) shares a histogram.
  EXPECT_EQ(hist(2), hist(3));        // bucket 2 = [2, 4)
  EXPECT_EQ(hist(4), hist(7));        // bucket 3 = [4, 8)
  EXPECT_EQ(hist(1024), hist(2047));  // bucket 11 = [1024, 2048)

  // Boundary crossings: 2^k belongs to the *next* bucket, not the
  // previous one (the spec the old comment got backwards).
  EXPECT_NE(hist(0), hist(1));
  EXPECT_NE(hist(1), hist(2));
  EXPECT_NE(hist(3), hist(4));
  EXPECT_NE(hist(1023), hist(1024));

  // Absolute pins: a fixed 4-row staircase (row lengths 1, 2, 4, 8) must
  // hash identically forever — any change to the bucketing or the mixing
  // function is a registry/plan-cache identity break, not a refactor.
  std::vector<index_t> r, c;
  std::vector<value_t> v;
  const index_t lens[4] = {1, 2, 4, 8};
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < lens[i]; ++j) {
      r.push_back(i);
      c.push_back(j);
      v.push_back(1.0f + 0.5f * static_cast<value_t>(j));
    }
  }
  const Csr stair = sparse::csr_from_triplets(4, 16, r, c, v);
  EXPECT_EQ(serve::fingerprint(stair).histogram_hash, 0xe095d61fb44338bfull);
  EXPECT_EQ(serve::fingerprint(stair).key(), 0x146e335994fc747dull);
}

TEST(ServeEngine, RegisterDedupsIdenticalGraphs) {
  Engine eng(deterministic_opts());
  const Csr a = sparse::uniform_random(64, 64, 512, 910);
  const GraphId id1 = eng.register_graph(a);
  const GraphId id2 = eng.register_graph(Csr(a));  // separate, equal copy
  EXPECT_EQ(id1.key, id2.key);
  EXPECT_EQ(*eng.graph(id1), a);

  const GraphId id3 = eng.register_graph(sparse::uniform_random(64, 64, 512, 911));
  EXPECT_NE(id1.key, id3.key);

  const auto st = eng.stats();
  EXPECT_EQ(st.graphs_registered, 2u);
  EXPECT_EQ(st.register_dedup_hits, 1u);

  EXPECT_THROW(eng.graph(GraphId{12345}), std::invalid_argument);
  Csr bad = a;
  bad.rowptr[3] = 9999;
  EXPECT_THROW(eng.register_graph(bad), std::runtime_error);
}

TEST(ServeEngine, BatchedResultsMatchPerRequestSpmm) {
  auto opt = deterministic_opts();
  opt.batch.max_batch_n = 256;
  Engine eng(opt);
  const Csr a = testutil::zoo_skewed();
  const GraphId id = eng.register_graph(a);

  // Odd widths put request boundaries inside the host kernel's 8-column
  // tiles, and a batch of them ends in a partial tile.
  const index_t widths[] = {3, 7, 9, 13, 17, 24};
  std::vector<Ticket> tickets;
  std::vector<DenseMatrix> inputs;
  for (int r = 0; r < 6; ++r) {
    inputs.push_back(features(a.cols, widths[r], 920 + r));
    tickets.push_back(eng.submit(id, inputs.back()));
  }
  eng.shutdown();

  for (std::size_t r = 0; r < tickets.size(); ++r) {
    const auto& res = tickets[r].wait();
    EXPECT_TRUE(testutil::bitwise_equal(res.c, testutil::reference_spmm(a, inputs[r])))
        << "request " << r << " must match the reference bitwise";
    EXPECT_GT(res.batch_size, 1);
    EXPECT_GT(res.modelled_ms, 0.0);
  }
  const auto st = eng.stats();
  EXPECT_EQ(st.completed, 6u);
  EXPECT_EQ(st.coalesced_requests, 6u);
  EXPECT_LT(st.batches, 6u);
}

TEST(ServeEngine, SpmmLikeReductionsCoalesceAndMatch) {
  Engine eng(deterministic_opts());
  eng.start();
  const Csr a = testutil::zoo_empty_rows();
  const GraphId id = eng.register_graph(a);

  for (auto kind : {kernels::ReduceKind::Max, kernels::ReduceKind::Mean}) {
    DenseMatrix b = features(a.cols, 20, 930);
    Ticket t = eng.submit(id, b, {.reduce = kind});
    const auto& res = t.wait();
    EXPECT_TRUE(testutil::bitwise_equal(res.c, testutil::reference_spmm(a, b, kind)));
  }
}

TEST(ServeEngine, PlanCacheHitsOnRepeatedShape) {
  Engine eng(deterministic_opts());
  const Csr a = sparse::uniform_random(512, 512, 4096, 940);
  const GraphId id = eng.register_graph(a);

  // Submit-wait-repeat so every batch carries exactly one request and the
  // (graph, device, n, reduce) plan key repeats across batches.
  eng.start();
  double first_ms = 0.0;
  for (int r = 0; r < 3; ++r) {
    Ticket t = eng.submit(id, features(a.cols, 64, 941 + r));
    const auto& res = t.wait();
    if (r == 0) {
      EXPECT_FALSE(res.plan_cache_hit);
      first_ms = res.modelled_ms;
    } else {
      EXPECT_TRUE(res.plan_cache_hit);
      EXPECT_DOUBLE_EQ(res.modelled_ms, first_ms);
    }
  }
  const auto st = eng.stats();
  EXPECT_EQ(st.plan_cache_misses, 1u);
  EXPECT_EQ(st.plan_cache_hits, 2u);
}

TEST(ServeEngine, PlanCacheWidthBucketBoundaries) {
  // Pin the width-bucket edges of plan quantization (width_quantum = 32):
  // N = 31 and 32 share the 32-wide bucket, 33 and 64 the 64-wide bucket,
  // 65 opens the 96-wide bucket. Submit-wait so every batch carries one
  // request and the plan width equals the request width.
  Engine eng(deterministic_opts());
  eng.start();
  const Csr a = sparse::uniform_random(256, 256, 2048, 915);
  const GraphId id = eng.register_graph(a);

  std::vector<Ticket> tickets;  // keep tickets alive: they own the results
  auto run = [&](index_t n) -> const serve::RequestResult& {
    tickets.push_back(eng.submit(id, features(a.cols, n, 916)));
    return tickets.back().wait();
  };
  const auto& r31 = run(31);
  EXPECT_FALSE(r31.plan_cache_hit);  // opens bucket 32
  const auto& r32 = run(32);
  EXPECT_TRUE(r32.plan_cache_hit);  // 32 is the last width in bucket 32
  // Both priced at the bucket width, so their modelled shares are equal.
  EXPECT_DOUBLE_EQ(r31.modelled_ms, r32.modelled_ms);
  const auto& r33 = run(33);
  EXPECT_FALSE(r33.plan_cache_hit);  // 33 crosses into bucket 64
  const auto& r64 = run(64);
  EXPECT_TRUE(r64.plan_cache_hit);
  EXPECT_DOUBLE_EQ(r33.modelled_ms, r64.modelled_ms);
  const auto& r65 = run(65);
  EXPECT_FALSE(r65.plan_cache_hit);  // 65 opens bucket 96

  const auto pc = eng.plan_cache().stats();
  EXPECT_EQ(pc.misses, 3u);
  EXPECT_EQ(pc.hits, 2u);
  EXPECT_EQ(pc.size, 3u);
  const auto keys = eng.plan_cache().resident_keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0].n, 32);  // LRU order: quantized widths, oldest first
  EXPECT_EQ(keys[1].n, 64);
  EXPECT_EQ(keys[2].n, 96);
}

TEST(ServeEngine, BatchingBeatsPerRequestModelledTime) {
  // The serving argument in one assertion: 8 requests of width 16 on one
  // graph, coalesced into one width-128 kernel, must model faster than
  // eight separate width-16 launches (shared A traffic + one launch
  // overhead instead of eight).
  const Csr a = sparse::uniform_random(4096, 4096, 32768, 950);
  const int requests = 8;
  const index_t n = 16;

  auto batched_opt = deterministic_opts();
  batched_opt.batch.max_batch_n = 256;
  batched_opt.batch.max_batch_requests = 16;
  Engine batched(batched_opt);

  auto solo_opt = deterministic_opts();
  solo_opt.batch.max_batch_requests = 1;
  Engine solo(solo_opt);

  const GraphId idb = batched.register_graph(a);
  const GraphId ids = solo.register_graph(a);
  for (int r = 0; r < requests; ++r) {
    batched.submit(idb, features(a.cols, n, 951));
    solo.submit(ids, features(a.cols, n, 951));
  }
  batched.shutdown();
  solo.shutdown();

  const auto bs = batched.stats();
  const auto ss = solo.stats();
  EXPECT_EQ(bs.batches, 1u);
  EXPECT_EQ(ss.batches, 8u);
  EXPECT_LT(bs.modelled_ms, ss.modelled_ms)
      << "one width-128 kernel must beat eight width-16 kernels";
}

TEST(ServeEngine, ConcurrentSubmissionIsDeterministic) {
  // Four client threads race submissions across two graphs and two
  // devices with two workers; every result must still match the
  // per-request reference exactly, whatever batches formed.
  ServeOptions opt;
  opt.num_workers = 2;
  opt.plan.sample_blocks = 128;
  Engine eng(opt);

  const Csr g1 = sparse::uniform_random(192, 192, 1500, 960);
  const Csr g2 = testutil::zoo_skewed();
  const GraphId id1 = eng.register_graph(g1);
  const GraphId id2 = eng.register_graph(g2);

  constexpr int kThreads = 4, kPerThread = 8;
  std::vector<std::vector<Ticket>> tickets(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kPerThread; ++r) {
        const bool first = (t + r) % 2 == 0;
        tickets[static_cast<std::size_t>(t)].push_back(
            eng.submit(first ? id1 : id2,
                       features(first ? g1.cols : g2.cols, 8 + 4 * (r % 4),
                                1000 + 100 * t + r)));
      }
    });
  }
  for (auto& c : clients) c.join();
  eng.shutdown();

  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kPerThread; ++r) {
      const bool first = (t + r) % 2 == 0;
      const Csr& g = first ? g1 : g2;
      const DenseMatrix b = features(g.cols, 8 + 4 * (r % 4), 1000 + 100 * t + r);
      const auto& res = tickets[static_cast<std::size_t>(t)][static_cast<std::size_t>(r)].wait();
      EXPECT_TRUE(testutil::bitwise_equal(res.c, testutil::reference_spmm(g, b)))
          << "thread " << t << " req " << r;
    }
  }
  const auto st = eng.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(st.completed, st.submitted);
  std::uint64_t device_requests = 0;
  for (const auto& d : st.devices) device_requests += d.requests;
  EXPECT_EQ(device_requests, st.completed);
}

TEST(ServeEngine, ShutdownDrainsEveryQueuedRequest) {
  auto opt = deterministic_opts();  // paused: nothing runs until shutdown
  Engine eng(opt);
  const Csr a = sparse::uniform_random(96, 96, 700, 970);
  const GraphId id = eng.register_graph(a);

  std::vector<Ticket> tickets;
  for (int r = 0; r < 20; ++r) {
    tickets.push_back(eng.submit(id, features(a.cols, 12, 980 + r)));
  }
  for (const auto& t : tickets) EXPECT_FALSE(t.ready());

  eng.shutdown();  // must start, drain all 20, then stop

  for (const auto& t : tickets) EXPECT_TRUE(t.ready());
  EXPECT_EQ(eng.stats().completed, 20u);
  EXPECT_THROW(eng.submit(id, features(a.cols, 12, 999)), std::runtime_error);
}

TEST(ServeEngine, RoundRobinSpreadsBatchesAcrossDevices) {
  ServeOptions opt;
  opt.num_workers = 1;
  opt.start_paused = true;
  opt.batch.max_batch_requests = 1;  // one batch per request
  opt.plan.sample_blocks = 128;
  Engine eng(opt);
  ASSERT_EQ(eng.options().devices.size(), 2u);

  const Csr a = sparse::uniform_random(128, 128, 1024, 990);
  const GraphId id = eng.register_graph(a);
  for (int r = 0; r < 6; ++r) eng.submit(id, features(a.cols, 16, 991));
  eng.shutdown();

  const auto st = eng.stats();
  ASSERT_EQ(st.devices.size(), 2u);
  EXPECT_EQ(st.devices[0].batches, 3u);
  EXPECT_EQ(st.devices[1].batches, 3u);
  EXPECT_EQ(st.devices[0].device, "gtx1080ti");
  EXPECT_EQ(st.devices[1].device, "rtx2080");
  EXPECT_GT(st.devices[0].modelled_ms, 0.0);
  EXPECT_GT(st.devices[1].modelled_ms, 0.0);
}

TEST(ServeEngine, UnshardedBatchesNeverPriceTheInterconnect) {
  // A single device with no interconnect: only halo rows of a sharded
  // launch cross it, so unsharded batches stay finite and gather nothing.
  ServeOptions opt = deterministic_opts();
  opt.sharding.interconnect_gbps = 0.0;
  Engine eng(opt);
  const Csr a = sparse::uniform_random(128, 128, 1024, 992);
  Ticket t = eng.submit(eng.register_graph(a), features(a.cols, 16, 993));
  eng.shutdown();

  EXPECT_TRUE(std::isfinite(t.wait().modelled_ms));
  EXPECT_GT(t.wait().modelled_ms, 0.0);
  const auto st = eng.stats();
  EXPECT_EQ(st.gather_ms, 0.0);
  EXPECT_EQ(st.modelled_ms, st.devices[0].modelled_ms);
  EXPECT_TRUE(std::isfinite(st.modelled_ms));
}

TEST(ServeEngine, SubmitValidatesShapesAndHandles) {
  Engine eng(deterministic_opts());
  const Csr a = sparse::uniform_random(32, 48, 200, 995);
  const GraphId id = eng.register_graph(a);

  EXPECT_THROW(eng.submit(id, DenseMatrix(32, 4)), std::invalid_argument);
  EXPECT_THROW(eng.submit(id, DenseMatrix(48, 0)), std::invalid_argument);
  EXPECT_THROW(eng.submit(id, DenseMatrix(48, 4, kernels::Layout::ColMajor)),
               std::invalid_argument);
  EXPECT_THROW(eng.submit(GraphId{777}, DenseMatrix(48, 4)), std::invalid_argument);

  Ticket ok = eng.submit(id, features(48, 4, 996));
  eng.shutdown();
  EXPECT_EQ(ok.wait().c.rows(), 32);
}

// ---------------------------------------------------------------------------
// Accounting golden: one paused single-worker engine over both devices
// runs every execution shape the engine has — a coalesced plain pair, a
// Max singleton, a graph with a live update overlay, a coalesced pair on a
// 2-way sharded graph and a fused model pass — and pins the exact
// counters, device clocks and per-request metadata they produce. Exact
// selection makes every cold plan build charge a non-zero build_ms.

struct AccountingRun {
  serve::EngineStats stats;
  serve::PlanCacheStats plans;
  double virtual_now_ms = 0.0;
  std::vector<serve::RequestResult> results;
};

AccountingRun run_accounting_scenario() {
  ServeOptions opt;  // both devices: gtx1080ti, rtx2080
  opt.num_workers = 1;
  opt.start_paused = true;
  opt.plan.selection = SelectionMode::Exact;
  opt.plan.sample_blocks = 128;
  opt.tenants["gold"] = serve::TenantConfig{.share = 2.0};
  // zoo_uniform (~16.8 KB) shards 2 ways under this budget; the other
  // graphs fit one device.
  opt.sharding.device_capacity_bytes = 10000;
  Engine eng(opt);

  const Csr plain = sparse::uniform_random(128, 128, 1024, 2001);
  const Csr dynamic = sparse::uniform_random(96, 96, 600, 2002);
  const Csr big = testutil::zoo_uniform();
  const Csr small = sparse::uniform_random(64, 64, 256, 2003);
  const GraphId plain_id = eng.register_graph(plain);
  const GraphId dyn_id = eng.register_graph(dynamic);
  const GraphId big_id = eng.register_graph(big);
  const GraphId small_id = eng.register_graph(small);
  const serve::ModelId model = eng.register_model(
      small_id, serve::make_model_spec(serve::ServedModelKind::Gcn, 32, 16, 4, 2));

  serve::EdgeBatch update;
  update.inserts = {{3, 7, 0.5f}, {40, 1, -2.0f}};
  eng.apply_update(dyn_id, update);

  std::vector<Ticket> tickets;
  tickets.push_back(eng.submit(plain_id, features(plain.cols, 16, 2010)));
  tickets.push_back(eng.submit(plain_id, features(plain.cols, 40, 2011), {.deadline_ms = 1e-6}));
  tickets.push_back(eng.submit(plain_id, features(plain.cols, 32, 2012),
                               {.reduce = kernels::ReduceKind::Max}));
  tickets.push_back(eng.submit(dyn_id, features(dynamic.cols, 24, 2013), {.deadline_ms = 1e6}));
  tickets.push_back(eng.submit(big_id, features(big.cols, 16, 2014), {.tenant = "gold"}));
  tickets.push_back(eng.submit(big_id, features(big.cols, 48, 2015), {.tenant = "gold"}));
  tickets.push_back(eng.submit_model(model, features(small.rows, 32, 2016)));
  eng.shutdown();

  AccountingRun run;
  run.stats = eng.stats();
  run.plans = eng.plan_cache().stats();
  run.virtual_now_ms = eng.virtual_now_ms();
  for (const Ticket& t : tickets) run.results.push_back(t.wait());
  return run;
}

TEST(ServeEngine, AccountingGolden) {
  const AccountingRun run = run_accounting_scenario();
  const serve::EngineStats& st = run.stats;
  EXPECT_EQ(st.graphs_registered, 4u);
  EXPECT_EQ(st.register_dedup_hits, 0u);
  EXPECT_EQ(st.graphs_sharded, 1u);
  EXPECT_EQ(st.graph_updates, 1u);
  EXPECT_EQ(st.graph_compactions, 0u);
  EXPECT_EQ(st.shards_replanned, 0u);
  EXPECT_EQ(st.plan_invalidations, 0u);
  EXPECT_EQ(st.models_registered, 1u);
  EXPECT_EQ(st.model_register_dedup_hits, 0u);
  EXPECT_EQ(st.model_requests, 1u);
  EXPECT_EQ(st.fused_saved_ms, 0.01758190476190476);
  EXPECT_EQ(st.submitted, 7u);
  EXPECT_EQ(st.completed, 7u);
  EXPECT_EQ(st.shed, 0u);
  EXPECT_EQ(st.batches, 5u);
  EXPECT_EQ(st.coalesced_requests, 4u);
  EXPECT_EQ(st.deadline_missed, 1u);
  EXPECT_EQ(st.shard_launches, 2u);
  EXPECT_EQ(st.gather_ms, 0.00016810666666666667);
  EXPECT_EQ(st.plan_cache_hits, 1u);
  EXPECT_EQ(st.plan_cache_misses, 6u);
  EXPECT_EQ(st.plan_build_ms, 0.094953819935023082);
  EXPECT_EQ(st.modelled_ms, 0.13398895280003684);
  EXPECT_EQ(run.virtual_now_ms, 0.069860782121212134);

  // Selection telemetry lives in the plan cache's own counters.
  EXPECT_EQ(run.plans.hits, 1u);
  EXPECT_EQ(run.plans.misses, 6u);
  EXPECT_EQ(run.plans.exact_builds, 5u);
  EXPECT_EQ(run.plans.predicted_builds, 0u);
  EXPECT_EQ(run.plans.retunes, 0u);
  EXPECT_EQ(run.plans.mispredicts, 0u);
  EXPECT_EQ(run.plans.hybrid_builds, 0u);

  const struct {
    const char* device;
    std::uint64_t requests, batches, hits, misses;
    double modelled_ms;
  } devices[] = {
      {"gtx1080ti", 5u, 3u, 0u, 3u, 0.069860782121212134},
      {"rtx2080", 4u, 3u, 1u, 3u, 0.064128170678824731},
  };
  ASSERT_EQ(st.devices.size(), std::size(devices));
  for (std::size_t i = 0; i < std::size(devices); ++i) {
    const serve::DeviceServeStats& ds = st.devices[i];
    EXPECT_EQ(ds.device, devices[i].device);
    EXPECT_EQ(ds.requests, devices[i].requests) << ds.device;
    EXPECT_EQ(ds.batches, devices[i].batches) << ds.device;
    EXPECT_EQ(ds.plan_cache_hits, devices[i].hits) << ds.device;
    EXPECT_EQ(ds.plan_cache_misses, devices[i].misses) << ds.device;
    EXPECT_EQ(ds.modelled_ms, devices[i].modelled_ms) << ds.device;
  }

  const struct {
    const char* tenant;
    std::uint64_t submitted, completed, shed, served_width;
  } tenants[] = {
      {"default", 5u, 5u, 0u, 132u},
      {"gold", 2u, 2u, 0u, 64u},
  };
  ASSERT_EQ(st.tenants.size(), std::size(tenants));
  for (std::size_t i = 0; i < std::size(tenants); ++i) {
    const serve::TenantServeStats& ts = st.tenants[i];
    EXPECT_EQ(ts.tenant, tenants[i].tenant);
    EXPECT_EQ(ts.submitted, tenants[i].submitted) << ts.tenant;
    EXPECT_EQ(ts.completed, tenants[i].completed) << ts.tenant;
    EXPECT_EQ(ts.shed, tenants[i].shed) << ts.tenant;
    EXPECT_EQ(ts.served_width, tenants[i].served_width) << ts.tenant;
  }

  // In submission order: the coalesced plain pair (the second one misses
  // its deadline), the Max singleton, the overlay graph, the coalesced
  // sharded pair, and the model pass (which reports its fused time).
  const struct {
    SpmmAlgo algo;
    const char* device;
    double modelled_ms, completed_at_ms;
    bool hit;
    int batch_size, shards;
    double composed_ms;
    bool deadline_met;
  } requests[] = {
      {SpmmAlgo::CrcCwm2, "gtx1080ti", 0.0015102662337662337, 0.022974303719008268, false, 2, 0, 0, true},
      {SpmmAlgo::CrcCwm2, "gtx1080ti", 0.0037756655844155842, 0.022974303719008268, false, 2, 0, 0, false},
      {SpmmAlgo::Crc, "gtx1080ti", 0.0055481198347107439, 0.069860782121212134, false, 1, 0, 0, true},
      {SpmmAlgo::Crc, "rtx2080", 0.0057908184523809527, 0.0057908184523809527, false, 1, 0, 0, true},
      {SpmmAlgo::CrcCwm2, "gtx1080ti", 0.0014862041666666667, 0.064312662286501385, false, 2, 2, 0, true},
      {SpmmAlgo::CrcCwm2, "gtx1080ti", 0.0044586125000000004, 0.064312662286501385, false, 2, 2, 0, true},
      {SpmmAlgo::Crc, "rtx2080", 0.01076943154761905, 0.064128170678824731, false, 1, 0, 0.028351336309523811, true},
  };
  ASSERT_EQ(run.results.size(), std::size(requests));
  for (std::size_t i = 0; i < std::size(requests); ++i) {
    const serve::RequestResult& r = run.results[i];
    ASSERT_EQ(r.status, serve::RequestStatus::Ok) << "request " << i;
    EXPECT_EQ(r.algo, requests[i].algo) << "request " << i;
    EXPECT_EQ(r.device, requests[i].device) << "request " << i;
    EXPECT_EQ(r.modelled_ms, requests[i].modelled_ms) << "request " << i;
    EXPECT_EQ(r.completed_at_ms, requests[i].completed_at_ms) << "request " << i;
    EXPECT_EQ(r.plan_cache_hit, requests[i].hit) << "request " << i;
    EXPECT_EQ(r.batch_size, requests[i].batch_size) << "request " << i;
    EXPECT_EQ(r.shards, requests[i].shards) << "request " << i;
    EXPECT_EQ(r.composed_ms, requests[i].composed_ms) << "request " << i;
    EXPECT_EQ(r.deadline_met, requests[i].deadline_met) << "request " << i;
  }
}

}  // namespace
}  // namespace gespmm
