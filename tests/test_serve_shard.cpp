/// Sharded serving: the row-partition planner (nnz balance, contiguous
/// cover, halo goldens, bitwise reassembly) and the engine's scatter/
/// gather execution path (capacity-triggered sharding, shard-qualified
/// plan-cache identities, bitwise identity with the unsharded kernel,
/// makespan scaling, and the registration error contract).

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>

#include "core/gespmm.hpp"
#include "serve/engine.hpp"
#include "serve/shard.hpp"
#include "test_util.hpp"

namespace gespmm {
namespace {

using serve::Engine;
using serve::GraphId;
using serve::ServeOptions;
using serve::ShardPlan;
using serve::Ticket;

DenseMatrix features(index_t rows, index_t cols, std::uint64_t seed) {
  DenseMatrix b(rows, cols);
  kernels::fill_random(b, seed);
  return b;
}

/// Paused engine over `copies` gtx1080ti devices with an explicit
/// per-device residency budget (0 = the preset's DRAM, i.e. unsharded at
/// test scale).
ServeOptions shard_opts(int copies, std::size_t capacity_bytes) {
  ServeOptions opt;
  opt.devices.assign(static_cast<std::size_t>(copies), gpusim::gtx1080ti());
  opt.num_workers = 1;
  opt.start_paused = true;
  opt.plan.sample_blocks = 256;
  opt.sharding.device_capacity_bytes = capacity_bytes;
  return opt;
}

TEST(ShardPlanner, CsrBytesGolden) {
  // zoo_empty_rows: 8 rows, 8 nnz. rowptr (rows+1) indices + one index
  // and one value per nonzero.
  const Csr a = testutil::zoo_empty_rows();
  EXPECT_EQ(serve::csr_bytes(a),
            9 * sizeof(index_t) + 8 * (sizeof(index_t) + sizeof(value_t)));
}

TEST(ShardPlanner, BalancedContiguousCoverOnUniformGraph) {
  const Csr a = sparse::uniform_random(1000, 1000, 10000, 77);
  const ShardPlan plan = serve::plan_shards(a, 4);
  ASSERT_EQ(plan.num_shards(), 4);

  index_t row = 0, nnz_total = 0, max_nnz = 0, min_nnz = a.nnz();
  for (const auto& s : plan.shards) {
    EXPECT_EQ(s.row_begin, row) << "shards must tile the rows contiguously";
    EXPECT_LT(s.row_begin, s.row_end);
    EXPECT_EQ(s.csr.rows, s.rows());
    EXPECT_EQ(s.csr.cols, a.cols);
    EXPECT_EQ(s.csr.rowptr.front(), 0) << "shard rowptr must be rebased";
    row = s.row_end;
    nnz_total += s.nnz();
    max_nnz = std::max(max_nnz, s.nnz());
    min_nnz = std::min(min_nnz, s.nnz());
  }
  EXPECT_EQ(row, a.rows) << "shards must cover every row exactly once";
  EXPECT_EQ(nnz_total, a.nnz());
  // Near-uniform nnz per row: the greedy planner lands within one max-row
  // of the ideal quarter on each side.
  EXPECT_LE(max_nnz - min_nnz, 100) << "nnz imbalance on a uniform graph";
}

TEST(ShardPlanner, SkewedGraphBalancesNnzNotRows) {
  const Csr a = testutil::zoo_skewed();  // rmat: heavy head rows
  const ShardPlan plan = serve::plan_shards(a, 4);
  ASSERT_EQ(plan.num_shards(), 4);

  index_t max_row_nnz = 0;
  for (index_t i = 0; i < a.rows; ++i) {
    max_row_nnz = std::max(
        max_row_nnz, a.rowptr[static_cast<std::size_t>(i) + 1] -
                         a.rowptr[static_cast<std::size_t>(i)]);
  }
  const index_t ideal = (a.nnz() + 3) / 4;
  index_t min_rows = a.rows, max_rows = 0;
  for (const auto& s : plan.shards) {
    // Greedy bound: a shard overshoots its proportional target by at most
    // the row that closed it (the last shard only underfills).
    EXPECT_LE(s.nnz(), ideal + max_row_nnz);
    min_rows = std::min(min_rows, s.rows());
    max_rows = std::max(max_rows, s.rows());
  }
  // The balance currency is edges: on this skew the row counts spread.
  EXPECT_GT(max_rows, min_rows);
}

TEST(ShardPlanner, HaloColumnsHandBuiltGolden) {
  // 4 rows / 6 nnz; with 2 shards the nnz-balanced split is rows [0,2) /
  // [2,4). Shard 0 references column 3 (owned by shard 1) and shard 1
  // references column 0 (owned by shard 0): one halo column each.
  std::vector<index_t> r{0, 0, 1, 2, 2, 3};
  std::vector<index_t> c{0, 3, 1, 0, 2, 3};
  std::vector<value_t> v{1, 2, 3, 4, 5, 6};
  const Csr a = sparse::csr_from_triplets(4, 4, r, c, v);

  const ShardPlan plan = serve::plan_shards(a, 2);
  ASSERT_EQ(plan.num_shards(), 2);
  EXPECT_EQ(plan.shards[0].row_begin, 0);
  EXPECT_EQ(plan.shards[0].row_end, 2);
  EXPECT_EQ(plan.shards[1].row_begin, 2);
  EXPECT_EQ(plan.shards[1].row_end, 4);
  EXPECT_EQ(plan.shards[0].nnz(), 3);
  EXPECT_EQ(plan.shards[1].nnz(), 3);
  EXPECT_EQ(plan.shards[0].halo_cols, 1);
  EXPECT_EQ(plan.shards[1].halo_cols, 1);
  // Distinct slices get distinct plan-cache identities.
  EXPECT_NE(plan.shards[0].key, plan.shards[1].key);
}

TEST(ShardPlanner, ShardKernelsReassembleBitwise) {
  // Each shard computes in place at its row_begin into one NaN-filled C,
  // as the engine runs them; a row no shard writes cannot pass. Widths on
  // both sides of the host kernel's B-row prefetch (on above 16 columns).
  for (const auto& zc : testutil::zoo_cases()) {
    if (zc.matrix.rows < 4) continue;  // need at least one row per shard
    const Csr& a = zc.matrix;
    const ShardPlan plan = serve::plan_shards(a, 4);
    for (const index_t n : {9, 33}) {
      const DenseMatrix b = features(a.cols, n, 1234);
      DenseMatrix got(a.rows, n);
      got.fill(std::numeric_limits<value_t>::quiet_NaN());
      for (const auto& s : plan.shards) {
        kernels::spmm_host_parallel(s.csr, b, got, ReduceKind::Sum, s.row_begin);
      }
      EXPECT_TRUE(testutil::bitwise_equal(got, testutil::reference_spmm(a, b)))
          << zc.name << " n=" << n << ": sharded slices must reassemble bitwise";
    }
  }
}

TEST(ShardPlanner, RejectsImpossibleShardCounts) {
  const Csr a = testutil::zoo_empty_rows();  // 8 rows
  EXPECT_THROW(serve::plan_shards(a, 0), std::invalid_argument);
  EXPECT_THROW(serve::plan_shards(a, -1), std::invalid_argument);
  EXPECT_THROW(serve::plan_shards(a, 9), std::invalid_argument);
  EXPECT_EQ(serve::plan_shards(a, 8).num_shards(), 8);  // one row each
}

// ---------------------------------------------------------------------------
// Degenerate planning inputs

/// Recompute a shard's halo count from first principles: distinct columns
/// the slice references outside its owned row range.
index_t reference_halo(const serve::GraphShard& s) {
  std::set<index_t> outside;
  for (const index_t col : s.csr.colind) {
    if (col < s.row_begin || col >= s.row_end) outside.insert(col);
  }
  return static_cast<index_t>(outside.size());
}

TEST(ShardPlanner, FewerRowsThanGroupSizeThrows) {
  // A device group wider than the row count cannot give every device a
  // non-empty contiguous slice — the planner must refuse, not emit empty
  // shards.
  EXPECT_THROW(serve::plan_shards(testutil::zoo_single_entry(), 2),
               std::invalid_argument);
  EXPECT_THROW(serve::plan_shards(testutil::zoo_all_empty(), 7),
               std::invalid_argument);
  // Exactly one row per device is the boundary case and must plan.
  const ShardPlan one_each =
      serve::plan_shards(testutil::zoo_all_empty(), 6);
  ASSERT_EQ(one_each.num_shards(), 6);
  for (const auto& s : one_each.shards) {
    EXPECT_EQ(s.rows(), 1);
    EXPECT_EQ(s.nnz(), 0);
    EXPECT_EQ(s.halo_cols, 0);  // nothing referenced, nothing gathered
  }
}

TEST(ShardPlanner, ZeroNnzShardsPlanCleanly) {
  // All-empty operand: every shard is structurally valid, contiguous,
  // zero-nnz, zero-halo — and the kernel over each produces zero rows.
  const Csr a = testutil::zoo_all_empty();  // 6x6, nnz 0
  const ShardPlan plan = serve::plan_shards(a, 3);
  ASSERT_EQ(plan.num_shards(), 3);
  index_t row = 0;
  for (const auto& s : plan.shards) {
    EXPECT_EQ(s.row_begin, row);
    EXPECT_GT(s.rows(), 0);
    EXPECT_EQ(s.nnz(), 0);
    EXPECT_EQ(s.halo_cols, 0);
    s.csr.validate();
    row = s.row_end;
  }
  EXPECT_EQ(row, a.rows);

  const DenseMatrix b = features(a.cols, 5, 91);
  for (const auto& s : plan.shards) {
    DenseMatrix part(s.rows(), 5);
    kernels::spmm_host_parallel(s.csr, b, part, ReduceKind::Sum);
    EXPECT_TRUE(testutil::bitwise_equal(part, DenseMatrix(s.rows(), 5)));
  }
}

TEST(ShardPlanner, AllNnzInOneRowSkewGoldens) {
  // 6x6, all 6 nnz in row 2 (cols 0..5). The greedy nnz-balanced walk
  // closes shard 0 right after the heavy row: rows [0,3) hold everything,
  // rows [3,6) are a zero-nnz shard. Hand-built halo goldens: shard 0
  // references cols {3,4,5} outside its range; shard 1 references nothing.
  std::vector<index_t> r{2, 2, 2, 2, 2, 2};
  std::vector<index_t> c{0, 1, 2, 3, 4, 5};
  std::vector<value_t> v{1, 2, 3, 4, 5, 6};
  const Csr a = sparse::csr_from_triplets(6, 6, r, c, v);

  const ShardPlan plan = serve::plan_shards(a, 2);
  ASSERT_EQ(plan.num_shards(), 2);
  EXPECT_EQ(plan.shards[0].row_begin, 0);
  EXPECT_EQ(plan.shards[0].row_end, 3);
  EXPECT_EQ(plan.shards[1].row_begin, 3);
  EXPECT_EQ(plan.shards[1].row_end, 6);
  EXPECT_EQ(plan.shards[0].nnz(), 6);
  EXPECT_EQ(plan.shards[1].nnz(), 0);
  EXPECT_EQ(plan.shards[0].halo_cols, 3);  // cols 3, 4, 5
  EXPECT_EQ(plan.shards[1].halo_cols, 0);
  EXPECT_EQ(plan.shards[0].halo_cols, reference_halo(plan.shards[0]));
}

TEST(ShardPlanner, SkewedWideRowHaloMatchesReference) {
  // zoo_wide_row concentrates ~500 of ~800 nnz in row 5 of a 64x512
  // rectangle. Whatever partition the planner picks must cover the rows
  // contiguously, keep every shard non-empty, conserve total nnz, and
  // report exactly the halo the slice contents imply.
  const Csr a = testutil::zoo_wide_row();
  const ShardPlan plan = serve::plan_shards(a, 4);
  ASSERT_EQ(plan.num_shards(), 4);
  index_t row = 0, nnz = 0;
  for (const auto& s : plan.shards) {
    EXPECT_EQ(s.row_begin, row);
    EXPECT_GT(s.rows(), 0);
    EXPECT_EQ(s.halo_cols, reference_halo(s));
    s.csr.validate();
    row = s.row_end;
    nnz += s.nnz();
  }
  EXPECT_EQ(row, a.rows);
  EXPECT_EQ(nnz, a.nnz());
}

TEST(ShardEngine, OversizedGraphShardsAndMatchesUnshardedBitwise) {
  const Csr a = sparse::uniform_random(4096, 4096, 65536, 55);
  const std::size_t total = serve::csr_bytes(a);

  // Reference: one device, default capacity -> served unsharded.
  Engine ref_eng(shard_opts(1, 0));
  const GraphId ref_id = ref_eng.register_graph(a);
  ASSERT_EQ(ref_eng.shard_plan(ref_id), nullptr);
  Ticket ref_t = ref_eng.submit(ref_id, features(a.cols, 16, 321));
  ref_eng.start();
  const auto& ref_res = ref_t.wait();
  ASSERT_EQ(ref_res.status, serve::RequestStatus::Ok);
  EXPECT_EQ(ref_res.shards, 0);

  // Sharded: two devices, capacity below the full operand.
  Engine eng(shard_opts(2, total - 1));
  const GraphId id = eng.register_graph(a);
  const auto plan = eng.shard_plan(id);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->num_shards(), 2);
  EXPECT_LE(plan->max_shard_bytes(), total - 1);
  Ticket t = eng.submit(id, features(a.cols, 16, 321));
  eng.start();
  const auto& res = t.wait();
  ASSERT_EQ(res.status, serve::RequestStatus::Ok);
  EXPECT_EQ(res.shards, 2);
  EXPECT_TRUE(testutil::bitwise_equal(res.c, ref_res.c))
      << "sharded output must be bitwise identical to unsharded";

  // And both match the sequential reference bitwise.
  EXPECT_TRUE(
      testutil::bitwise_equal(res.c, testutil::reference_spmm(a, features(a.cols, 16, 321))));

  const auto st = eng.stats();
  EXPECT_EQ(st.graphs_sharded, 1u);
  EXPECT_EQ(st.shard_launches, 2u);
  EXPECT_GT(st.gather_ms, 0.0);
  // Both devices participated in the single logical batch.
  ASSERT_EQ(st.devices.size(), 2u);
  EXPECT_EQ(st.devices[0].requests, 1u);
  EXPECT_EQ(st.devices[1].requests, 1u);
  EXPECT_EQ(st.batches, 1u);
}

TEST(ShardEngine, ShardQualifiedPlanKeysCoexist) {
  const Csr a = sparse::uniform_random(4096, 4096, 65536, 56);
  Engine eng(shard_opts(2, serve::csr_bytes(a) - 1));
  const GraphId id = eng.register_graph(a);
  const auto plan = eng.shard_plan(id);
  ASSERT_NE(plan, nullptr);

  Ticket t = eng.submit(id, features(a.cols, 8, 900));
  eng.start();
  ASSERT_EQ(t.wait().status, serve::RequestStatus::Ok);

  const auto keys = eng.plan_cache().resident_keys();
  ASSERT_EQ(keys.size(), 2u);
  for (int si = 0; si < 2; ++si) {
    const auto& shard = plan->shards[static_cast<std::size_t>(si)];
    const bool found = std::any_of(
        keys.begin(), keys.end(), [&](const serve::PlanKey& k) {
          return k.shard == si && k.graph == shard.key;
        });
    EXPECT_TRUE(found) << "missing shard-qualified plan key for shard " << si;
  }

  // A second identical submission hits both shard plans.
  Ticket t2 = eng.submit(id, features(a.cols, 8, 901));
  const auto& res2 = t2.wait();
  EXPECT_TRUE(res2.plan_cache_hit);
  EXPECT_EQ(eng.plan_cache().resident_keys().size(), 2u);
}

TEST(ShardEngine, CoalescedOddWidthBatchesMatchReferenceBitwise) {
  // Coalesced Sum and Max batches on a sharded graph: odd widths put
  // request boundaries inside the host kernel's 8-column tiles, each batch
  // ends in a partial tile, and every shard's rows reach the merged output
  // by block copy before the per-request split.
  const Csr a = testutil::zoo_skewed();
  Engine eng(shard_opts(2, serve::csr_bytes(a) - 1));
  const GraphId id = eng.register_graph(a);
  ASSERT_NE(eng.shard_plan(id), nullptr);

  struct Request {
    DenseMatrix b;
    ReduceKind reduce;
    Ticket ticket;
  };
  std::vector<Request> reqs;
  for (const ReduceKind reduce : {ReduceKind::Sum, ReduceKind::Max}) {
    for (const index_t n : {3, 9, 13}) {
      DenseMatrix b = features(a.cols, n, 700 + static_cast<std::uint64_t>(n));
      Ticket t = eng.submit(id, b, {.reduce = reduce});
      reqs.push_back({std::move(b), reduce, std::move(t)});
    }
  }
  eng.shutdown();

  for (const Request& r : reqs) {
    const auto& res = r.ticket.wait();
    ASSERT_EQ(res.status, serve::RequestStatus::Ok);
    EXPECT_EQ(res.shards, 2);
    EXPECT_GT(res.batch_size, 1);
    EXPECT_TRUE(testutil::bitwise_equal(res.c, testutil::reference_spmm(a, r.b, r.reduce)))
        << kernels::reduce_kind_name(r.reduce) << " n=" << r.b.cols();
  }
}

TEST(ShardEngine, FourWayShardingShrinksMakespan) {
  const Csr a = sparse::uniform_random(16384, 16384, 1 << 19, 57);
  const std::size_t total = serve::csr_bytes(a);

  Engine one(shard_opts(1, 0));
  const GraphId id1 = one.register_graph(a);
  Ticket t1 = one.submit(id1, features(a.cols, 64, 500));
  one.start();
  const double unsharded_ms = t1.wait().modelled_ms;

  Engine four(shard_opts(4, total / 4 + total / 8));  // forces 4 shards
  const GraphId id4 = four.register_graph(a);
  const auto plan = four.shard_plan(id4);
  ASSERT_NE(plan, nullptr);
  ASSERT_EQ(plan->num_shards(), 4);
  Ticket t4 = four.submit(id4, features(a.cols, 64, 500));
  four.start();
  const auto& res4 = t4.wait();

  // The sharded makespan (slowest shard incl. gather) must beat one
  // device doing all the work — compute splits 4 ways, gather does not,
  // so demand better than half rather than a full 4x here.
  EXPECT_LT(res4.modelled_ms, unsharded_ms * 0.5)
      << "4-way sharding should at least halve the modelled makespan";
  EXPECT_EQ(res4.shards, 4);
}

TEST(ShardEngine, RegistrationCapacityErrors) {
  const Csr a = sparse::uniform_random(512, 512, 8192, 58);
  const std::size_t total = serve::csr_bytes(a);

  // One device cannot shard: an oversized operand is a hard error.
  Engine single(shard_opts(1, total - 1));
  EXPECT_THROW(single.register_graph(a), std::runtime_error);

  // Two devices, but a budget even half the operand cannot meet.
  Engine tiny(shard_opts(2, total / 4));
  EXPECT_THROW(tiny.register_graph(a), std::runtime_error);

  // Exactly-fitting operand does not shard.
  Engine fits(shard_opts(2, total));
  const GraphId id = fits.register_graph(a);
  EXPECT_EQ(fits.shard_plan(id), nullptr);
}

TEST(ShardEngine, RegisterModelOnShardedGraphThrows) {
  const Csr a = sparse::uniform_random(512, 512, 8192, 59);
  Engine eng(shard_opts(2, serve::csr_bytes(a) - 1));
  const GraphId id = eng.register_graph(a);
  ASSERT_NE(eng.shard_plan(id), nullptr);
  EXPECT_THROW(eng.register_model(
                   id, serve::make_model_spec(serve::ServedModelKind::Gcn,
                                              /*in_feats=*/8,
                                              /*hidden_feats=*/8,
                                              /*out_feats=*/4,
                                              /*num_layers=*/2)),
               std::invalid_argument);
}

}  // namespace
}  // namespace gespmm
