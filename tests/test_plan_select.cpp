/// Learned plan selection (core/plan_select + SelectionMode): feature
/// extractor goldens including degenerate inputs, predictor determinism
/// pins, Exact-mode bitwise equality with the legacy sweep, the retune /
/// mispredict refinement hook, plan-cache/engine integration, and the
/// >= 200-matrix predictor-vs-exact property sweep on both devices.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/autotune.hpp"
#include "core/plan_select.hpp"
#include "kernels/spmm_hybrid.hpp"
#include "kernels/spmm_problem.hpp"
#include "serve/engine.hpp"
#include "serve/fingerprint.hpp"
#include "sparse/generators.hpp"
#include "test_util.hpp"

namespace gespmm {
namespace {

using serve::PlanCache;
using serve::PlanCacheOptions;
using serve::PlanKey;

/// Dense-ish diagonal blocks — the block-structured family the property
/// sweep needs and sparse/generators does not provide.
Csr block_diag(index_t blocks, index_t bs, std::uint64_t seed) {
  std::vector<index_t> r, c;
  std::vector<value_t> v;
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
  auto rnd = [&]() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return static_cast<double>(s >> 11) * (1.0 / 9007199254740992.0);
  };
  for (index_t b = 0; b < blocks; ++b) {
    for (index_t i = 0; i < bs; ++i) {
      for (index_t j = 0; j < bs; ++j) {
        if (rnd() < 0.6) {
          r.push_back(b * bs + i);
          c.push_back(b * bs + j);
          v.push_back(static_cast<value_t>(0.25 + 0.75 * rnd()));
        }
      }
    }
  }
  return sparse::csr_from_triplets(blocks * bs, blocks * bs, r, c, v);
}

// ---------------------------------------------------------------------------
// Feature extractor goldens.

TEST(PlanFeatures, EmptyGraphYieldsZeroMoments) {
  const PlanFeatures f = extract_plan_features(Csr(0, 0), 64);
  EXPECT_EQ(f.rows, 0);
  EXPECT_EQ(f.nnz, 0);
  EXPECT_DOUBLE_EQ(f.mean_row_nnz, 0.0);
  EXPECT_DOUBLE_EQ(f.row_nnz_variance, 0.0);
  EXPECT_DOUBLE_EQ(f.row_nnz_cv, 0.0);
  EXPECT_DOUBLE_EQ(f.density, 0.0);
  for (auto count : f.row_hist) EXPECT_EQ(count, 0u);
  EXPECT_EQ(f.n, 64);
  EXPECT_EQ(f.n_bucket, 2);
}

TEST(PlanFeatures, AllEmptyRowsLandInBucketZero) {
  const Csr a = testutil::zoo_all_empty();  // 6x6, nnz = 0
  const PlanFeatures f = extract_plan_features(a, 16);
  EXPECT_EQ(f.rows, 6);
  EXPECT_DOUBLE_EQ(f.mean_row_nnz, 0.0);
  EXPECT_DOUBLE_EQ(f.row_nnz_variance, 0.0);
  EXPECT_DOUBLE_EQ(f.row_nnz_cv, 0.0);
  EXPECT_DOUBLE_EQ(f.density, 0.0);
  EXPECT_EQ(f.row_hist[0], 6u);
  for (std::size_t b = 1; b < kRowHistBuckets; ++b) EXPECT_EQ(f.row_hist[b], 0u);
}

TEST(PlanFeatures, SingleDenseRowGoldens) {
  std::vector<index_t> r(64, 0), c(64);
  std::vector<value_t> v(64, 1.0f);
  for (index_t j = 0; j < 64; ++j) c[static_cast<std::size_t>(j)] = j;
  const Csr a = sparse::csr_from_triplets(1, 64, r, c, v);

  const PlanFeatures f = extract_plan_features(a, 32);
  EXPECT_EQ(f.rows, 1);
  EXPECT_EQ(f.nnz, 64);
  EXPECT_DOUBLE_EQ(f.mean_row_nnz, 64.0);
  EXPECT_DOUBLE_EQ(f.row_nnz_variance, 0.0);
  EXPECT_DOUBLE_EQ(f.row_nnz_cv, 0.0);
  EXPECT_DOUBLE_EQ(f.density, 1.0);
  // bit_width(64) == 7: a power-of-two length opens the next bucket
  // (half-open contract shared with the serve fingerprint).
  EXPECT_EQ(f.row_hist[7], 1u);
  EXPECT_EQ(f.n_bucket, 1);
}

TEST(PlanFeatures, KnownUniformMatrixGoldens) {
  const Csr a = testutil::zoo_uniform();  // 200x200, ~2000 nnz
  const PlanFeatures f = extract_plan_features(a, 256);
  EXPECT_EQ(f.rows, 200);
  EXPECT_EQ(f.nnz, a.nnz());
  EXPECT_DOUBLE_EQ(f.mean_row_nnz, static_cast<double>(a.nnz()) / 200.0);
  EXPECT_DOUBLE_EQ(f.density, static_cast<double>(a.nnz()) / (200.0 * 200.0));
  EXPECT_GT(f.row_nnz_variance, 0.0);
  EXPECT_GT(f.row_nnz_cv, 0.0);
  EXPECT_LT(f.row_nnz_cv, 1.0) << "uniform matrices are low-skew";
  std::uint64_t total = 0;
  for (auto count : f.row_hist) total += count;
  EXPECT_EQ(total, 200u) << "histogram partitions the rows";
  EXPECT_EQ(f.n_bucket, 8);
}

TEST(PlanFeatures, HistogramBucketContract) {
  // Rows of length 0, 1, 2, 4 land in buckets bit_width(len) = 0, 1, 2, 3.
  std::vector<index_t> r = {1, 2, 2, 3, 3, 3, 3};
  std::vector<index_t> c = {0, 0, 1, 0, 1, 2, 3};
  std::vector<value_t> v(r.size(), 1.0f);
  const Csr a = sparse::csr_from_triplets(4, 4, r, c, v);
  const auto hist = row_length_histogram(a);
  EXPECT_EQ(hist[0], 1u);
  EXPECT_EQ(hist[1], 1u);
  EXPECT_EQ(hist[2], 1u);
  EXPECT_EQ(hist[3], 1u);
}

TEST(PlanFeatures, HistogramMatchesServeFingerprint) {
  // The serve fingerprint's histogram hash must be exactly the shared
  // helper's buckets folded through mix64 with its documented seed: the
  // extractor and the fingerprint can never disagree about bucketing.
  for (const auto& zc : testutil::zoo_cases()) {
    const auto hist = row_length_histogram(zc.matrix);
    std::uint64_t hh = 0x5ca1ab1eull;
    for (std::uint64_t count : hist) hh = serve::mix64(hh, count);
    EXPECT_EQ(hh, serve::fingerprint(zc.matrix).histogram_hash) << zc.name;
  }
}

// ---------------------------------------------------------------------------
// Predictor determinism pins.

TEST(PlanPredictor, PinsFixedRuleBoundaryOnBothDevices) {
  const Csr uniform = testutil::zoo_uniform();
  const Csr skewed = testutil::zoo_skewed();
  for (const auto& dev : {gpusim::gtx1080ti(), gpusim::rtx2080()}) {
    for (const Csr* a : {&uniform, &skewed}) {
      EXPECT_EQ(predict_spmm_algo(*a, 16, dev), SpmmAlgo::Crc) << dev.name;
      EXPECT_EQ(predict_spmm_algo(*a, 32, dev), SpmmAlgo::Crc) << dev.name;
      EXPECT_EQ(predict_spmm_algo(*a, 33, dev), SpmmAlgo::CrcCwm2) << dev.name;
      EXPECT_EQ(predict_spmm_algo(*a, 512, dev), SpmmAlgo::CrcCwm2) << dev.name;
    }
  }
}

TEST(PlanPredictor, IsDeterministic) {
  const Csr a = testutil::zoo_skewed();
  const auto dev = gpusim::rtx2080();
  const PlanFeatures f = extract_plan_features(a, 128);
  const SpmmAlgo first = predict_spmm_algo(f, dev);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(predict_spmm_algo(f, dev), first);
}

// ---------------------------------------------------------------------------
// Exact mode stays bitwise-equal to the legacy sweep; Predict is free.

AutotuneOptions tune_opts(SelectionMode mode, const gpusim::DeviceSpec& dev,
                          double retune_regret = 0.0) {
  AutotuneOptions opt;
  opt.device = dev;
  opt.sample_blocks = 256;
  opt.mode = mode;
  opt.retune_regret = retune_regret;
  return opt;
}

/// The tuner's exhaustive sweep, replicated verbatim over the same
/// candidate set: the Exact path must reproduce it bitwise (same
/// simulations, same tie-breaks). `run_spmm` dispatches HybridMma to the
/// hybrid kernel, so the reference prices it the same way the tuner does.
AutotuneResult legacy_sweep(const Csr& a, index_t n, const AutotuneOptions& opt) {
  AutotuneResult res;
  res.default_choice = kernels::select_gespmm_algo(n);
  const std::vector<SpmmAlgo> candidates = autotune_candidates(a, n, opt.device);
  kernels::SpmmRunOptions ro;
  ro.device = opt.device;
  ro.sample = gpusim::SamplePolicy::sampled(opt.sample_blocks);
  res.best = candidates.front();
  double best_ms = std::numeric_limits<double>::infinity();
  for (auto algo : candidates) {
    kernels::SpmmProblem p(a, n);
    const double ms = kernels::run_spmm(algo, p, ro).time_ms();
    res.times_ms[algo] = ms;
    if (ms < best_ms) {
      best_ms = ms;
      res.best = algo;
    }
  }
  return res;
}

TEST(Autotune, ExactModeBitwiseEqualsLegacySweep) {
  const Csr uniform = testutil::zoo_uniform();
  const Csr skewed = testutil::zoo_skewed();
  for (const auto& dev : {gpusim::gtx1080ti(), gpusim::rtx2080()}) {
    for (const Csr* a : {&uniform, &skewed}) {
      for (index_t n : {16, 128}) {
        const AutotuneOptions opt = tune_opts(SelectionMode::Exact, dev);
        const AutotuneResult got = autotune_spmm(*a, n, opt);
        const AutotuneResult want = legacy_sweep(*a, n, opt);
        EXPECT_EQ(got.best, want.best);
        EXPECT_EQ(got.default_choice, want.default_choice);
        ASSERT_EQ(got.times_ms.size(), want.times_ms.size());
        for (const auto& [algo, ms] : want.times_ms) {
          EXPECT_EQ(got.times_ms.at(algo), ms)
              << kernels::algo_name(algo) << " on " << dev.name;
        }
        // build_ms is exactly the non-winning candidates' profiling time.
        double others = 0.0;
        for (const auto& [algo, ms] : want.times_ms) {
          if (algo != want.best) others += ms;
        }
        EXPECT_DOUBLE_EQ(got.build_ms, others);
        EXPECT_FALSE(got.predicted);
        EXPECT_FALSE(got.retuned);
      }
    }
  }
}

TEST(Autotune, PredictCostsZeroBuildAndMatchesExactPricing) {
  const Csr a = testutil::zoo_uniform();
  const auto dev = gpusim::gtx1080ti();
  const AutotuneResult pred =
      autotune_spmm(a, 128, tune_opts(SelectionMode::Predict, dev));
  EXPECT_TRUE(pred.predicted);
  EXPECT_FALSE(pred.retuned);
  EXPECT_DOUBLE_EQ(pred.build_ms, 0.0) << "prediction has no sweep to pay for";
  EXPECT_EQ(pred.best, predict_spmm_algo(a, 128, dev));

  // The predicted kernel's pricing run is the same simulation the sweep
  // would have used — bitwise.
  const AutotuneResult exact =
      autotune_spmm(a, 128, tune_opts(SelectionMode::Exact, dev));
  EXPECT_EQ(pred.times_ms.at(pred.best), exact.times_ms.at(pred.best));
}

TEST(Autotune, RetuneEscalatesToSweepAndFlagsMispredicts) {
  const Csr a = testutil::zoo_skewed();
  const auto dev = gpusim::rtx2080();

  // Always-verify: any threshold in (0, 1] makes the predicted time
  // exceed retune_regret * time(fixed rule), so the sweep always runs.
  const AutotuneResult verified =
      autotune_spmm(a, 128, tune_opts(SelectionMode::Predict, dev, 0.5));
  EXPECT_TRUE(verified.predicted);
  EXPECT_TRUE(verified.retuned);
  EXPECT_EQ(verified.times_ms.size(), autotune_candidates(a, 128, dev).size())
      << "escalation prices every candidate";

  const AutotuneResult exact =
      autotune_spmm(a, 128, tune_opts(SelectionMode::Exact, dev));
  EXPECT_EQ(verified.best, exact.best) << "the sweep has the final word";
  const double t_pred = exact.times_ms.at(predict_spmm_algo(a, 128, dev));
  EXPECT_EQ(verified.mispredicted, exact.times_ms.at(exact.best) < t_pred);

  // A loose threshold never escalates: the prediction matches the fixed
  // rule here, so predicted time == 1.0x the fixed rule's.
  const AutotuneResult trusted =
      autotune_spmm(a, 128, tune_opts(SelectionMode::Predict, dev, 10.0));
  EXPECT_FALSE(trusted.retuned);
  EXPECT_DOUBLE_EQ(trusted.build_ms, 0.0);
}

TEST(Autotune, NonSumExactPricesOnlyThePredictedKernel) {
  // The sweep is calibrated for Sum; any other reduction takes the
  // prediction even in Exact mode, priced once under that reduction.
  const Csr a = testutil::zoo_skewed();
  const auto dev = gpusim::rtx2080();
  const AutotuneResult res = autotune_spmm(a, 128, tune_opts(SelectionMode::Exact, dev),
                                           kernels::ReduceKind::Max);
  EXPECT_EQ(res.best, select_spmm_algo(a, 128, dev));
  EXPECT_EQ(res.times_ms.size(), 1u);
  EXPECT_EQ(res.build_ms, 0.0);
  EXPECT_TRUE(res.predicted);
  EXPECT_FALSE(res.retuned);
}

// ---------------------------------------------------------------------------
// Plan cache and engine integration.

TEST(PlanCacheSelection, ModesPopulateBuildCostAndCounters) {
  const Csr a = testutil::zoo_uniform();
  const auto dev = gpusim::gtx1080ti();
  const PlanKey key{1, dev.name, 128, kernels::ReduceKind::Sum};

  PlanCacheOptions exact_opt;
  exact_opt.selection = SelectionMode::Exact;
  exact_opt.sample_blocks = 256;
  PlanCache exact_cache(exact_opt);
  const auto exact_plan = exact_cache.acquire(key, a, dev).plan();
  EXPECT_FALSE(exact_plan->predicted);
  EXPECT_GT(exact_plan->build_ms, 0.0);
  EXPECT_EQ(exact_cache.stats().exact_builds, 1u);
  EXPECT_EQ(exact_cache.stats().predicted_builds, 0u);

  PlanCacheOptions pred_opt;
  pred_opt.sample_blocks = 256;  // selection defaults to Predict
  PlanCache pred_cache(pred_opt);
  const auto pred_plan = pred_cache.acquire(key, a, dev).plan();
  EXPECT_TRUE(pred_plan->predicted);
  EXPECT_DOUBLE_EQ(pred_plan->build_ms, 0.0);
  EXPECT_EQ(pred_plan->algo, exact_plan->algo)
      << "predictor and sweep agree on this matrix";
  EXPECT_EQ(pred_plan->modelled_ms, exact_plan->modelled_ms)
      << "same kernel, same pricing simulation — bitwise";
  EXPECT_EQ(pred_cache.stats().predicted_builds, 1u);
  EXPECT_EQ(pred_cache.stats().exact_builds, 0u);
}

TEST(PlanCacheSelection, NonSumKeysTakeThePredictedKernelInEitherMode) {
  // The candidate sweep is calibrated for the standard semiring: a
  // Max/Mean/Min key takes the predicted kernel whatever the selection
  // mode, priced once under its own reduction, with no selection cost and
  // no entry in the selection counters. The pruned-DNN matrix has dense
  // row blocks, so hybrid is a candidate there.
  const Csr uniform = testutil::zoo_uniform();
  const Csr skewed = testutil::zoo_skewed();
  const Csr pruned = sparse::pruned_dnn(4096, 256, 16, 0.85, 11);
  for (const auto& dev : {gpusim::gtx1080ti(), gpusim::rtx2080()}) {
    for (const SelectionMode mode : {SelectionMode::Predict, SelectionMode::Exact}) {
      PlanCacheOptions opt;
      opt.selection = mode;
      opt.sample_blocks = 256;
      PlanCache cache(opt);
      std::uint64_t graph = 0;
      std::uint64_t partitioned = 0;
      for (const Csr* a : {&uniform, &skewed, &pruned}) {
        ++graph;
        for (const auto reduce :
             {kernels::ReduceKind::Max, kernels::ReduceKind::Mean, kernels::ReduceKind::Min}) {
          for (const index_t n : {64, 128}) {
            const PlanKey key{graph, dev.name, n, reduce};
            const auto plan = cache.acquire(key, *a, dev).plan();
            const SpmmAlgo algo = select_spmm_algo(*a, n, dev);
            EXPECT_EQ(plan->algo, algo) << dev.name << " n=" << n;

            kernels::SpmmProblem p(*a, n);
            kernels::SpmmRunOptions ro;
            ro.device = dev;
            ro.sample = gpusim::SamplePolicy::sampled(opt.sample_blocks);
            ro.reduce = reduce;
            const double want = algo == SpmmAlgo::HybridMma
                                    ? kernels::run_spmm_hybrid_detailed(p, ro).total.time_ms()
                                    : kernels::run_spmm(algo, p, ro).time_ms();
            EXPECT_EQ(plan->modelled_ms, want) << dev.name << " n=" << n;
            EXPECT_EQ(plan_steps_time_ms(plan->steps), want) << dev.name << " n=" << n;
            EXPECT_EQ(plan->build_ms, 0.0);
            if (plan->steps.size() > 1) ++partitioned;
          }
        }
      }
      EXPECT_GT(partitioned, 0u) << "the pruned-DNN matrix partitions";
      const auto st = cache.stats();
      EXPECT_EQ(st.predicted_builds, 0u);
      EXPECT_EQ(st.exact_builds, 0u);
      EXPECT_EQ(st.retunes, 0u);
      EXPECT_EQ(st.mispredicts, 0u);
      EXPECT_EQ(st.hybrid_builds, partitioned);
    }
  }
}

TEST(PlanCacheSelection, DisabledCacheBuildsUncachedEveryTime) {
  const Csr a = testutil::zoo_uniform();
  const auto dev = gpusim::gtx1080ti();
  PlanCacheOptions opt;
  opt.enabled = false;
  opt.sample_blocks = 256;
  PlanCache cache(opt);
  const PlanKey key{1, dev.name, 64, kernels::ReduceKind::Sum};

  auto lease1 = cache.acquire(key, a, dev);
  auto lease2 = cache.acquire(key, a, dev);
  EXPECT_TRUE(lease1.valid());
  EXPECT_FALSE(lease1.hit());
  EXPECT_FALSE(lease2.hit()) << "nothing is retained, so nothing can hit";
  EXPECT_FALSE(lease1.cached());
  EXPECT_EQ(lease1->modelled_ms, lease2->modelled_ms) << "builds stay deterministic";

  const auto st = cache.stats();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.uncached_builds, 2u);
  EXPECT_EQ(st.size, 0u);
}

serve::ServeOptions cold_opts(SelectionMode mode) {
  serve::ServeOptions opt;
  opt.devices = {gpusim::gtx1080ti()};
  opt.num_workers = 1;
  opt.start_paused = true;
  opt.batch.max_batch_requests = 1;
  opt.plan.sample_blocks = 256;
  opt.plan.selection = mode;
  return opt;
}

TEST(ServeEngineSelection, ColdMissChargesSweepCostOnlyInExactMode) {
  const Csr a = sparse::uniform_random(256, 256, 2048, 4242);

  auto run = [&](SelectionMode mode) {
    serve::Engine eng(cold_opts(mode));
    const serve::GraphId id = eng.register_graph(a);
    // Two identical-shape requests: the first misses cold, the second
    // hits — selection cost must be charged exactly once.
    kernels::DenseMatrix b1(a.cols, 64), b2(a.cols, 64);
    kernels::fill_random(b1, 7);
    kernels::fill_random(b2, 8);
    auto t1 = eng.submit(id, std::move(b1));
    auto t2 = eng.submit(id, std::move(b2));
    eng.shutdown();
    t1.wait();
    t2.wait();
    return std::make_pair(eng.stats(), eng.plan_cache().stats());
  };

  const auto [exact, exact_plans] = run(SelectionMode::Exact);
  const auto [pred, pred_plans] = run(SelectionMode::Predict);

  EXPECT_GT(exact.plan_build_ms, 0.0) << "Exact cold miss pays the sweep";
  EXPECT_DOUBLE_EQ(pred.plan_build_ms, 0.0) << "Predict cold miss is free";
  EXPECT_EQ(exact_plans.exact_builds, 1u);
  EXPECT_EQ(pred_plans.predicted_builds, 1u);
  EXPECT_EQ(exact.plan_cache_hits, 1u) << "second request rides the plan";
  // Identical kernels and pricing on this matrix, so the entire modelled
  // difference is the selection cost — charged once, not per request, and
  // it lands on the requesting device's virtual clock.
  EXPECT_DOUBLE_EQ(exact.modelled_ms, pred.modelled_ms + exact.plan_build_ms);
  ASSERT_EQ(exact.devices.size(), 1u);
  EXPECT_DOUBLE_EQ(exact.devices[0].modelled_ms,
                   pred.devices[0].modelled_ms + exact.plan_build_ms);
}

// ---------------------------------------------------------------------------
// Property sweep: >= 200 generated matrices, both devices. The predicted
// plan must stay within the documented regret bound of the exact sweep's
// best, and the cache's mispredict counter must equal the number of
// observed regressions exactly (always-verify retune threshold).

TEST(PlanSelectProperty, PredictorWithinRegretBoundAndMispredictsExact) {
  struct Mat {
    std::string name;
    Csr a;
  };
  std::vector<Mat> mats;
  for (std::uint64_t i = 0; i < 26; ++i) {
    const index_t rows = 128 + static_cast<index_t>(16 * i);
    mats.push_back({"uniform-" + std::to_string(i),
                    sparse::uniform_random(rows, rows, rows * 6, 9000 + i)});
    mats.push_back({"uniform-dense-" + std::to_string(i),
                    sparse::uniform_random(192, 192, 6144, 9100 + i)});
    mats.push_back({"rmat-" + std::to_string(i),
                    sparse::rmat(8, 4.0 + static_cast<double>(i % 5), 0.57, 0.19,
                                 0.19, 9200 + i)});
    mats.push_back({"block-" + std::to_string(i),
                    block_diag(6 + static_cast<index_t>(i % 6), 16, 9300 + i)});
  }
  ASSERT_GE(2 * mats.size(), 200u) << "the sweep must cover >= 200 matrix runs";

  const index_t widths[] = {48, 64, 160, 256};
  for (const auto& dev : {gpusim::gtx1080ti(), gpusim::rtx2080()}) {
    PlanCacheOptions copt;
    copt.selection = SelectionMode::Predict;
    copt.retune_regret = 0.5;  // always verify => exact mispredict counting
    copt.sample_blocks = 64;
    copt.width_quantum = 1;    // keys at the tested width exactly
    copt.max_entries = 0;      // unbounded: every build is observed
    PlanCache cache(copt);

    std::uint64_t observed_regressions = 0;
    std::uint64_t builds = 0;
    for (std::size_t i = 0; i < mats.size(); ++i) {
      const Csr& a = mats[i].a;
      const index_t n = widths[i % std::size(widths)];

      AutotuneOptions ex;
      ex.device = dev;
      ex.sample_blocks = 64;
      ex.mode = SelectionMode::Exact;
      const AutotuneResult exact = autotune_spmm(a, n, ex);
      const SpmmAlgo pred = predict_spmm_algo(a, n, dev);
      ASSERT_TRUE(exact.times_ms.count(pred) == 1)
          << mats[i].name << ": prediction must be a candidate";
      const double t_pred = exact.times_ms.at(pred);
      const double t_best = exact.times_ms.at(exact.best);
      EXPECT_LE(t_pred, t_best * kPlanSelectRegretBound)
          << mats[i].name << " n=" << n << " on " << dev.name
          << ": prediction outside the documented regret bound";
      if (t_pred > t_best) ++observed_regressions;

      const PlanKey key{i + 1, dev.name, n, kernels::ReduceKind::Sum};
      const auto plan = cache.acquire(key, a, dev).plan();
      ++builds;
      EXPECT_TRUE(plan->retuned) << "always-verify must escalate every build";
      EXPECT_EQ(plan->algo, exact.best) << "verified plan keeps the sweep's pick";
    }

    const auto st = cache.stats();
    EXPECT_EQ(st.retunes, builds);
    EXPECT_EQ(st.mispredicts, observed_regressions)
        << dev.name << ": the mispredict counter must match the observed "
                       "regressions exactly";
  }
}

}  // namespace
}  // namespace gespmm
