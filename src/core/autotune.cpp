#include "core/autotune.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "core/plan_select.hpp"
#include "kernels/spmm_hybrid.hpp"
#include "kernels/spmm_problem.hpp"

namespace gespmm {

AutotuneOptions::AutotuneOptions() : device(gpusim::gtx1080ti()) {}

std::vector<SpmmAlgo> autotune_candidates(const Csr& a, index_t n,
                                          const gpusim::DeviceSpec& device) {
  std::vector<SpmmAlgo> candidates = {SpmmAlgo::Crc};
  if (n > gpusim::kWarpSize) {
    candidates.push_back(SpmmAlgo::CrcCwm2);
    candidates.push_back(SpmmAlgo::CrcCwm4);
    candidates.push_back(SpmmAlgo::CrcCwm8);
  }
  const auto tile = gpusim::mma_tile_for(device);
  const auto stats =
      kernels::hybrid_partition_stats(a, static_cast<index_t>(tile.k));
  if (stats.dense_row_frac > 0.0) candidates.push_back(SpmmAlgo::HybridMma);
  return candidates;
}

SpmmAlgo select_spmm_algo(const Csr& a, index_t n,
                          const gpusim::DeviceSpec& device) {
  const auto candidates = autotune_candidates(a, n, device);
  SpmmAlgo algo = predict_spmm_algo(extract_plan_features(a, n), device);
  if (std::find(candidates.begin(), candidates.end(), algo) == candidates.end())
    algo = kernels::select_gespmm_algo(n);
  return algo;
}

AutotuneResult autotune_spmm(const Csr& a, index_t n, const AutotuneOptions& opt,
                             ReduceKind reduce) {
  AutotuneResult res;
  res.default_choice = kernels::select_gespmm_algo(n);

  kernels::SpmmRunOptions ro;
  ro.device = opt.device;
  ro.sample = gpusim::SamplePolicy::sampled(opt.sample_blocks);
  ro.reduce = reduce;

  // Per-partition detail of the hybrid candidate's pricing run, kept so the
  // winner's step list can expose each partition's modelled time.
  std::optional<kernels::HybridLaunchResult> hybrid_detail;

  // Price one candidate, memoized: the sweep and the predict/retune paths
  // share simulations through times_ms so no candidate is ever run twice.
  // Pricing reads only the launch result, so B and C are address-only.
  auto simulate = [&](SpmmAlgo algo) {
    if (auto it = res.times_ms.find(algo); it != res.times_ms.end())
      return it->second;
    kernels::SpmmProblem p(a, n, kernels::Layout::RowMajor, gpusim::address_only);
    double ms = 0.0;
    if (algo == SpmmAlgo::HybridMma) {
      hybrid_detail = kernels::run_spmm_hybrid_detailed(p, ro);
      ms = hybrid_detail->total.time_ms();
    } else {
      ms = kernels::run_spmm(algo, p, ro).time_ms();
    }
    res.times_ms[algo] = ms;
    return ms;
  };

  // Exhaustive sweep over the candidates, keeping the earliest minimum on
  // ties. Charges every profiling run except the winner's to build_ms.
  auto sweep = [&] {
    const std::vector<SpmmAlgo> candidates = autotune_candidates(a, n, opt.device);
    res.best = candidates.front();
    double best_ms = std::numeric_limits<double>::infinity();
    double total_ms = 0.0;
    for (auto algo : candidates) {
      const double ms = simulate(algo);
      total_ms += ms;
      if (ms < best_ms) {
        best_ms = ms;
        res.best = algo;
      }
    }
    res.build_ms = total_ms - best_ms;
    return best_ms;
  };

  // The sweep is calibrated for the standard semiring: other reductions
  // take the predicted kernel in either mode.
  const bool sweepable = reduce == ReduceKind::Sum;
  if (opt.mode == SelectionMode::Exact && sweepable) {
    sweep();
  } else {
    res.predicted = true;
    res.best = select_spmm_algo(a, n, opt.device);
    const double pred_ms = simulate(res.best);
    if (sweepable && opt.retune_regret > 0.0 &&
        pred_ms > opt.retune_regret * simulate(res.default_choice)) {
      // Escalate: run the sweep (memoization skips the already-priced
      // kernels, but their runs still count as selection cost — only the
      // prediction's own pricing run stays free, since a plan build pays
      // that one regardless of mode).
      const SpmmAlgo predicted_algo = res.best;
      const double best_ms = sweep();
      res.retuned = true;
      res.build_ms = 0.0;
      for (const auto& [algo, ms] : res.times_ms)
        if (algo != predicted_algo) res.build_ms += ms;
      res.mispredicted = best_ms < pred_ms;
    }
  }

  // Compile the winner into its row-partition step list.
  if (res.best == SpmmAlgo::HybridMma && hybrid_detail.has_value()) {
    const auto& d = *hybrid_detail;
    res.steps = hybrid_step_plan(d.dense_rows, a.rows, d.dense_ms, d.ragged_ms);
  } else {
    res.steps = single_step_plan(res.best, a.rows, res.times_ms.at(res.best));
  }
  return res;
}

}  // namespace gespmm
