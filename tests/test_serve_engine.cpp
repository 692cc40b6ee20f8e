/// The batched SpMM serving engine: fingerprint identity, plan-cache
/// reuse, batch coalescing correctness against the sequential reference,
/// concurrent-submission determinism, and shutdown draining.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/gespmm.hpp"
#include "serve/engine.hpp"
#include "test_util.hpp"

namespace gespmm {
namespace {

using serve::BatchConstraints;
using serve::Engine;
using serve::GraphId;
using serve::RequestShape;
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

TEST(BatchPlanner, CoalescesSameGraphWithinLimits) {
  const std::uint64_t g1 = 11, g2 = 22;
  const auto sum = kernels::ReduceKind::Sum;
  const auto max = kernels::ReduceKind::Max;
  BatchConstraints lim;
  lim.max_batch_n = 96;
  lim.max_batch_requests = 3;

  // Anchor g1; the g2 request is skipped, later g1 requests ride along up
  // to the width cap (32+32+16 = 80 <= 96; the final 32 would exceed the
  // request cap anyway).
  std::vector<RequestShape> q = {{g1, 32, sum}, {g2, 32, sum}, {g1, 32, sum},
                                 {g1, 16, sum}, {g1, 32, sum}};
  EXPECT_EQ(serve::plan_batch(q, lim), (std::vector<std::size_t>{0, 2, 3}));

  // Differing reductions never coalesce.
  std::vector<RequestShape> mixed = {{g1, 32, sum}, {g1, 32, max}, {g1, 32, sum}};
  EXPECT_EQ(serve::plan_batch(mixed, lim), (std::vector<std::size_t>{0, 2}));

  // A request wider than max_batch_n still ships, alone.
  std::vector<RequestShape> wide = {{g1, 256, sum}, {g1, 8, sum}};
  EXPECT_EQ(serve::plan_batch(wide, lim), (std::vector<std::size_t>{0}));

  EXPECT_TRUE(serve::plan_batch(std::vector<RequestShape>{}, lim).empty());
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

}  // namespace
}  // namespace gespmm
