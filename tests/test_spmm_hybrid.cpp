/// Density-partitioned hybrid execution: row partition boundary cases,
/// bitwise identity of the MMA+SIMT kernel pair against the reference
/// fold, per-partition pricing, PlanStep compilation through autotune
/// (including its agreement with the cheap selector), and the serving
/// layer carrying partitioned plans end-to-end — unsharded, sharded with
/// halo composition, and the structural decline on ragged families.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/autotune.hpp"
#include "core/plan_select.hpp"
#include "kernels/registry.hpp"
#include "kernels/spmm_hybrid.hpp"
#include "serve/engine.hpp"
#include "test_util.hpp"

namespace gespmm {
namespace {

using kernels::HybridPartition;
using kernels::partition_rows_by_density;
using kernels::ReduceKind;
using kernels::SpmmAlgo;
using kernels::SpmmProblem;
using kernels::SpmmRunOptions;
using testutil::DenseMatrix;

/// A matrix with `dense` rows of `dense_nnz` nonzeros followed by
/// `ragged` rows of `ragged_nnz` (0 allowed) — explicit partition shapes.
Csr two_band(index_t dense, index_t dense_nnz, index_t ragged,
             index_t ragged_nnz) {
  std::vector<index_t> r, c;
  std::vector<value_t> v;
  const index_t cols = std::max<index_t>(std::max(dense_nnz, ragged_nnz), 1);
  for (index_t i = 0; i < dense; ++i) {
    for (index_t j = 0; j < dense_nnz; ++j) {
      r.push_back(i);
      c.push_back(j);
      v.push_back(0.25f + 0.5f / static_cast<value_t>(1 + i + j));
    }
  }
  for (index_t i = 0; i < ragged; ++i) {
    for (index_t j = 0; j < ragged_nnz; ++j) {
      r.push_back(dense + i);
      c.push_back((i + j) % cols);
      v.push_back(0.5f + 0.25f / static_cast<value_t>(1 + i + j));
    }
  }
  return sparse::csr_from_triplets(dense + ragged, cols, r, c, v);
}

const index_t kTileK = static_cast<index_t>(gpusim::MmaTileSpec{}.k);

// ---------------------------------------------------------------------------
// Partition boundary cases.

TEST(HybridPartition, AllRowsDense) {
  const Csr a = two_band(8, kTileK + 4, 0, 0);
  const HybridPartition p = partition_rows_by_density(a, kTileK);
  EXPECT_EQ(p.rows, 8);
  EXPECT_EQ(p.dense_rows, 8);
  EXPECT_EQ(p.ragged_rows(), 0);
  for (index_t i = 0; i < 8; ++i) EXPECT_EQ(p.perm[static_cast<std::size_t>(i)], i);
}

TEST(HybridPartition, AllRowsRagged) {
  const Csr a = two_band(0, 0, 8, kTileK - 1);
  const HybridPartition p = partition_rows_by_density(a, kTileK);
  EXPECT_EQ(p.dense_rows, 0);
  EXPECT_EQ(p.ragged_rows(), 8);
  for (index_t i = 0; i < 8; ++i) EXPECT_EQ(p.perm[static_cast<std::size_t>(i)], i);
}

TEST(HybridPartition, ThresholdExactlyAtTileKIsDense) {
  // nnz == k fills exactly one A-fragment slice: dense, by the >= contract.
  const Csr at = two_band(1, kTileK, 1, kTileK - 1);
  const HybridPartition p = partition_rows_by_density(at, kTileK);
  EXPECT_EQ(p.dense_rows, 1);
  EXPECT_EQ(p.perm[0], 0);
  EXPECT_EQ(p.perm[1], 1);
}

TEST(HybridPartition, InterleavedRowsStayStableWithinEachPartition) {
  // Rows 0,2,4 ragged (1 nnz), rows 1,3 dense: dense-first, both in
  // original order.
  std::vector<index_t> r, c;
  std::vector<value_t> v;
  for (index_t i = 0; i < 5; ++i) {
    const index_t len = (i % 2 == 1) ? kTileK + 2 : 1;
    for (index_t j = 0; j < len; ++j) {
      r.push_back(i);
      c.push_back(j);
      v.push_back(1.0f);
    }
  }
  const Csr a = sparse::csr_from_triplets(5, kTileK + 2, r, c, v);
  const HybridPartition p = partition_rows_by_density(a, kTileK);
  EXPECT_EQ(p.dense_rows, 2);
  const std::vector<index_t> want = {1, 3, 0, 2, 4};
  EXPECT_EQ(p.perm, want);
}

TEST(HybridPartition, EmptyMatrixAndSingleRows) {
  const HybridPartition none = partition_rows_by_density(Csr(0, 4), kTileK);
  EXPECT_EQ(none.rows, 0);
  EXPECT_EQ(none.dense_rows, 0);
  EXPECT_TRUE(none.perm.empty());

  const HybridPartition one_dense =
      partition_rows_by_density(two_band(1, kTileK + 1, 0, 0), kTileK);
  EXPECT_EQ(one_dense.dense_rows, 1);
  EXPECT_EQ(one_dense.ragged_rows(), 0);

  const HybridPartition one_ragged =
      partition_rows_by_density(two_band(0, 0, 1, 3), kTileK);
  EXPECT_EQ(one_ragged.dense_rows, 0);
  EXPECT_EQ(one_ragged.ragged_rows(), 1);
}

TEST(HybridPartition, StatsGoldens) {
  // 2 dense rows of 2k nnz + 6 ragged rows of 2: drf = 2/8, dnf = 4k/(4k+12).
  const Csr a = two_band(2, 2 * kTileK, 6, 2);
  const auto st = kernels::hybrid_partition_stats(a, kTileK);
  EXPECT_DOUBLE_EQ(st.dense_row_frac, 2.0 / 8.0);
  EXPECT_DOUBLE_EQ(st.dense_nnz_frac,
                   static_cast<double>(4 * kTileK) /
                       static_cast<double>(4 * kTileK + 12));

  const auto empty = kernels::hybrid_partition_stats(Csr(0, 0), kTileK);
  EXPECT_DOUBLE_EQ(empty.dense_row_frac, 0.0);
  EXPECT_DOUBLE_EQ(empty.dense_nnz_frac, 0.0);
}

// ---------------------------------------------------------------------------
// Bitwise identity: the permutation round-trip must reproduce the
// reference kernel's output exactly, for both pinned reductions, on
// matrices exercising every partition shape.

std::vector<std::pair<std::string, Csr>> identity_zoo() {
  std::vector<std::pair<std::string, Csr>> zoo;
  zoo.emplace_back("pruned_dnn", sparse::pruned_dnn(128, 128, 16, 0.85, 21));
  zoo.emplace_back("two_band", two_band(24, kTileK + 8, 40, 5));
  zoo.emplace_back("all_dense", two_band(32, kTileK, 0, 0));
  zoo.emplace_back("all_ragged", two_band(0, 0, 32, 4));
  zoo.emplace_back("at_threshold", two_band(16, kTileK, 16, kTileK - 1));
  zoo.emplace_back("single_dense", two_band(1, kTileK + 1, 0, 0));
  zoo.emplace_back("single_ragged", two_band(0, 0, 1, 2));
  zoo.emplace_back("empty_rows", testutil::zoo_empty_rows());
  zoo.emplace_back("skewed", testutil::zoo_skewed());
  return zoo;
}

TEST(HybridBitwise, PermutationRoundTripMatchesReferenceExactly) {
  for (const auto& [name, a] : identity_zoo()) {
    for (const index_t n : {index_t{8}, index_t{32}, index_t{33}, index_t{64}}) {
      for (const auto reduce : {ReduceKind::Sum, ReduceKind::Max}) {
        SpmmProblem ref(a, n);
        kernels::fill_random(ref.B, 77);
        SpmmProblem hyb(a, n);
        hyb.B = ref.B;

        SpmmRunOptions opt;
        opt.reduce = reduce;
        kernels::run_spmm(SpmmAlgo::Crc, ref, opt);
        kernels::run_spmm_hybrid(hyb, opt);

        for (index_t i = 0; i < a.rows; ++i) {
          for (index_t j = 0; j < n; ++j) {
            ASSERT_EQ(hyb.C.at(i, j), ref.C.at(i, j))
                << name << " n=" << n << " reduce="
                << kernels::reduce_kind_name(reduce) << " at (" << i << ", "
                << j << ")";
          }
        }
      }
    }
  }
}

TEST(HybridBitwise, RegistryDispatchRunsTheHybridKernel) {
  const Csr a = sparse::pruned_dnn(64, 64, 16, 0.8, 5);
  SpmmProblem p(a, 32);
  kernels::fill_random(p.B, 3);
  const auto r = kernels::run_spmm(SpmmAlgo::HybridMma, p);
  EXPECT_EQ(r.kernel_name, "hybrid(mma+simt)");
  EXPECT_GT(r.metrics.mma_flops, 0u) << "the dense pipe must actually run";
  testutil::expect_matches_reference(a, p.B, p.C, ReduceKind::Sum);
  EXPECT_STREQ(kernels::algo_name(SpmmAlgo::HybridMma), "hybrid(mma+simt)");
}

// ---------------------------------------------------------------------------
// Per-partition pricing: the detailed result decomposes the composed time.

TEST(HybridPricing, StepTimesDecomposeTheTotal) {
  const Csr a = two_band(32, 2 * kTileK, 64, 4);
  SpmmProblem p(a, 64);
  kernels::fill_random(p.B, 9);
  const auto d = kernels::run_spmm_hybrid_detailed(p);
  EXPECT_EQ(d.threshold, kTileK);
  EXPECT_EQ(d.dense_rows, 32);
  EXPECT_GT(d.dense_ms, 0.0);
  EXPECT_GT(d.ragged_ms, 0.0);
  EXPECT_DOUBLE_EQ(d.total.time_ms(), d.dense_ms + d.ragged_ms);
}

TEST(HybridPricing, EmptyPartitionSkipsItsLaunch) {
  SpmmProblem dense_only(two_band(16, kTileK + 2, 0, 0), 32);
  kernels::fill_random(dense_only.B, 1);
  const auto d = kernels::run_spmm_hybrid_detailed(dense_only);
  EXPECT_GT(d.dense_ms, 0.0);
  EXPECT_DOUBLE_EQ(d.ragged_ms, 0.0);

  SpmmProblem ragged_only(two_band(0, 0, 16, 3), 32);
  kernels::fill_random(ragged_only.B, 2);
  const auto r = kernels::run_spmm_hybrid_detailed(ragged_only);
  EXPECT_DOUBLE_EQ(r.dense_ms, 0.0);
  EXPECT_GT(r.ragged_ms, 0.0);
  EXPECT_EQ(r.total.metrics.mma_flops, 0u);
}

// ---------------------------------------------------------------------------
// Autotune compiles PlanStep lists; candidacy is structural.

TEST(HybridAutotune, CandidacyRequiresADenseRow) {
  const auto dev = gpusim::gtx1080ti();
  const Csr blocked = sparse::pruned_dnn(128, 128, 16, 0.85, 31);
  const auto with = autotune_candidates(blocked, 64, dev);
  EXPECT_NE(std::find(with.begin(), with.end(), SpmmAlgo::HybridMma), with.end());

  const Csr ragged = sparse::grid_road(1024, 0.05, 32);
  const auto without = autotune_candidates(ragged, 64, dev);
  EXPECT_EQ(std::find(without.begin(), without.end(), SpmmAlgo::HybridMma),
            without.end())
      << "no dense row => hybrid is not even a candidate";
}

TEST(HybridAutotune, SingleKernelWinnerCompilesToOneDegenerateStep) {
  const Csr a = sparse::grid_road(1024, 0.05, 33);
  AutotuneOptions opt;
  opt.mode = SelectionMode::Exact;
  opt.sample_blocks = 256;
  const AutotuneResult res = autotune_spmm(a, 64, opt);
  EXPECT_NE(res.best, SpmmAlgo::HybridMma);
  ASSERT_EQ(res.steps.size(), 1u);
  EXPECT_EQ(res.steps[0].algo, res.best);
  EXPECT_EQ(res.steps[0].pipe, StepPipe::Simt);
  EXPECT_EQ(res.steps[0].row_begin, 0);
  EXPECT_EQ(res.steps[0].row_end, a.rows);
  EXPECT_DOUBLE_EQ(res.steps[0].modelled_ms, res.times_ms.at(res.best));
}

TEST(HybridAutotune, HybridWinnerCompilesToPartitionedSteps) {
  // Dense head + ragged tail where the dense pipe wins: the Exact sweep
  // must pick hybrid honestly and expose both partition steps. The matrix
  // must be large enough to fill the simulated device — a window-per-block
  // kernel on a few hundred rows cannot hide memory latency and honestly
  // loses (that boundary is the selector's job to learn, not ours to hide).
  const Csr a = sparse::pruned_dnn(4096, 256, 16, 0.85, 11);
  const auto part = partition_rows_by_density(a, kTileK);
  ASSERT_GT(part.dense_rows, 0);
  ASSERT_GT(part.ragged_rows(), 0) << "tiles dropped everywhere leave empty rows";
  for (const auto& dev : {gpusim::gtx1080ti(), gpusim::rtx2080()}) {
    AutotuneOptions opt;
    opt.device = dev;
    opt.mode = SelectionMode::Exact;
    opt.sample_blocks = 512;
    const AutotuneResult res = autotune_spmm(a, 128, opt);
    EXPECT_EQ(res.best, SpmmAlgo::HybridMma) << dev.name;
    ASSERT_EQ(res.steps.size(), 2u) << dev.name;
    EXPECT_EQ(res.steps[0].pipe, StepPipe::Mma);
    EXPECT_EQ(res.steps[0].row_begin, 0);
    EXPECT_EQ(res.steps[0].row_end, part.dense_rows);
    EXPECT_EQ(res.steps[1].pipe, StepPipe::Simt);
    EXPECT_EQ(res.steps[1].row_begin, part.dense_rows);
    EXPECT_EQ(res.steps[1].row_end, a.rows);
    EXPECT_DOUBLE_EQ(plan_steps_time_ms(res.steps), res.times_ms.at(res.best))
        << "step times must decompose the winner's time";
  }
}

// ---------------------------------------------------------------------------
// Selection: Predict-mode autotune and the cheap selector agree.

TEST(HybridPlan, PredictModeAutotuneMatchesTheSelector) {
  // The cheap selector must name exactly the kernel Predict-mode autotune
  // (and so every cached serving plan) picks, on every shape — including
  // ones where the learned choice differs from the paper's static width
  // rule.
  for (const auto& [name, a] : identity_zoo()) {
    for (const auto& dev : {gpusim::gtx1080ti(), gpusim::rtx2080()}) {
      AutotuneOptions opt;
      opt.device = dev;
      for (const index_t n : {index_t{16}, index_t{64}, index_t{256}}) {
        EXPECT_EQ(autotune_spmm(a, n, opt).best, select_spmm_algo(a, n, dev))
            << name << " n=" << n << " on " << dev.name;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Serve: partitioned plans end-to-end.

serve::ServeOptions hybrid_serve_opts() {
  serve::ServeOptions opt;
  opt.devices = {gpusim::gtx1080ti()};
  opt.num_workers = 1;
  opt.start_paused = true;
  opt.batch.max_batch_requests = 1;
  opt.plan.selection = SelectionMode::Exact;  // honest sweep incl. hybrid
  opt.plan.sample_blocks = 256;
  return opt;
}

TEST(HybridServe, PartitionedPlanFlowsThroughCacheAndResult) {
  const Csr a = sparse::pruned_dnn(4096, 256, 16, 0.85, 11);
  serve::Engine eng(hybrid_serve_opts());
  const serve::GraphId id = eng.register_graph(a);
  DenseMatrix b(a.cols, 128);
  kernels::fill_random(b, 41);
  DenseMatrix expect(a.rows, 128);
  kernels::spmm_host_parallel(a, b, expect, ReduceKind::Sum);
  auto t = eng.submit(id, std::move(b));
  eng.shutdown();
  const auto& res = t.wait();

  ASSERT_EQ(res.status, serve::RequestStatus::Ok);
  EXPECT_EQ(res.algo, SpmmAlgo::HybridMma);
  ASSERT_EQ(res.plan_steps.size(), 2u);
  EXPECT_EQ(res.plan_steps[0].pipe, StepPipe::Mma);
  EXPECT_EQ(res.plan_steps[1].pipe, StepPipe::Simt);
  EXPECT_EQ(res.plan_steps.back().row_end, a.rows);
  // A singleton batch is priced at the whole plan: the result's modelled
  // time is exactly the step times' sum.
  EXPECT_DOUBLE_EQ(res.modelled_ms, plan_steps_time_ms(res.plan_steps));
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t j = 0; j < 128; ++j) {
      ASSERT_EQ(res.c.at(i, j), expect.at(i, j)) << "serving must stay bitwise";
    }
  }
  EXPECT_EQ(eng.plan_cache().stats().hybrid_builds, 1u);
}

TEST(HybridServe, NonSumReductionsCanCompilePartitionedPlansToo) {
  const Csr a = sparse::pruned_dnn(4096, 256, 16, 0.85, 11);
  serve::Engine eng(hybrid_serve_opts());
  const serve::GraphId id = eng.register_graph(a);
  DenseMatrix b(a.cols, 128);
  kernels::fill_random(b, 42);
  auto t = eng.submit(id, std::move(b), {.reduce = ReduceKind::Max});
  eng.shutdown();
  const auto& res = t.wait();
  ASSERT_EQ(res.status, serve::RequestStatus::Ok);
  // The non-sum path has no sweep, but the learned selector still sees the
  // dense partition; whatever it picks, the step list must be present and
  // must tile the row space.
  ASSERT_FALSE(res.plan_steps.empty());
  EXPECT_EQ(res.plan_steps.front().row_begin, 0);
  EXPECT_EQ(res.plan_steps.back().row_end, a.rows);
  EXPECT_DOUBLE_EQ(res.modelled_ms, plan_steps_time_ms(res.plan_steps));
}

TEST(HybridServe, SelectorDeclinesRaggedFamilies) {
  const Csr a = sparse::grid_road(2048, 0.05, 51);
  serve::ServeOptions opt = hybrid_serve_opts();
  opt.plan.selection = SelectionMode::Predict;  // the learned path declines
  serve::Engine eng(opt);
  const serve::GraphId id = eng.register_graph(a);
  DenseMatrix b(a.cols, 128);
  kernels::fill_random(b, 43);
  auto t = eng.submit(id, std::move(b));
  eng.shutdown();
  const auto& res = t.wait();
  ASSERT_EQ(res.status, serve::RequestStatus::Ok);
  EXPECT_NE(res.algo, SpmmAlgo::HybridMma);
  ASSERT_EQ(res.plan_steps.size(), 1u) << "ragged matrices keep one-step plans";
  EXPECT_EQ(res.plan_steps[0].pipe, StepPipe::Simt);
  EXPECT_EQ(eng.plan_cache().stats().hybrid_builds, 0u);
}

TEST(HybridServe, ShardHaloPricingComposesWithPartitionSteps) {
  // A sharded pruned-DNN graph: each shard slice autotunes its own
  // (possibly partitioned) plan, and the batch's makespan must equal
  // max over shards of (sum of that shard's step times + its halo
  // gather) — per-partition pricing composing with the interconnect.
  const Csr a = sparse::pruned_dnn(512, 512, 16, 0.85, 61);
  serve::ServeOptions opt = hybrid_serve_opts();
  opt.devices = {gpusim::gtx1080ti(), gpusim::rtx2080()};
  opt.sharding.device_capacity_bytes = serve::csr_bytes(a) / 2 + 64;
  serve::Engine eng(opt);
  const serve::GraphId id = eng.register_graph(a);
  const auto shards = eng.shard_plan(id);
  ASSERT_NE(shards, nullptr) << "the capacity budget must force sharding";

  const index_t n = 128;
  DenseMatrix b(a.cols, n);
  kernels::fill_random(b, 44);
  auto t = eng.submit(id, std::move(b));
  eng.shutdown();
  const auto& res = t.wait();
  ASSERT_EQ(res.status, serve::RequestStatus::Ok);
  EXPECT_EQ(res.shards, shards->num_shards());
  ASSERT_FALSE(res.plan_steps.empty());
  EXPECT_EQ(res.plan_steps.back().row_end, shards->shards.front().rows())
      << "the result carries shard 0's step list over the slice's rows";

  // Recompute the expected makespan from independently built shard plans.
  double want_makespan = 0.0;
  for (const auto& s : shards->shards) {
    serve::PlanCache fresh(opt.plan);
    const serve::PlanKey key{s.key, opt.devices[static_cast<std::size_t>(s.index)].name,
                             n, ReduceKind::Sum, s.index};
    const auto plan = fresh.lookup_or_build(
        key, s.csr, opt.devices[static_cast<std::size_t>(s.index)]);
    EXPECT_DOUBLE_EQ(plan->modelled_ms, plan_steps_time_ms(plan->steps));
    const double gather_ms = static_cast<double>(s.halo_cols) *
                             static_cast<double>(n) * sizeof(value_t) /
                             (opt.sharding.interconnect_gbps * 1e6);
    want_makespan = std::max(want_makespan, plan->modelled_ms + gather_ms);
  }
  EXPECT_DOUBLE_EQ(res.modelled_ms, want_makespan);
}

}  // namespace
}  // namespace gespmm
