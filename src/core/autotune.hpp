#pragma once
/// \file autotune.hpp
/// Per-matrix coarsening-factor selection: learned predictor + sweep.
///
/// The paper (Section V-B2) considers tuning CF per matrix, finds that an
/// analytical model "could be difficult due to the entangled effects of
/// hardware parameters and sparse matrix properties", observes that the
/// fixed choice CF=2 loses >15% on only 4-and-1 of 64 matrices, and ships
/// CF=2 untuned. This module provides both answers to that question:
///
///  - `SelectionMode::Exact` — the tuner the paper decided against:
///    every candidate is simulated with block sampling and the fastest
///    kept. Exhaustive, and the profiling runs cost real modelled device
///    time (`build_ms`).
///  - `SelectionMode::Predict` (default) — ParamSpMM-style adaptive
///    selection: deterministic matrix features (core/plan_select) walk an
///    offline-trained decision tree straight to a kernel, so selection
///    costs ~0 modelled time. The sweep survives as the offline trainer,
///    the fallback, and the online-refinement escalation path
///    (`retune_regret`).

#include <map>
#include <vector>

#include "core/gespmm.hpp"
#include "core/plan_step.hpp"

namespace gespmm {

/// How autotune_spmm picks the kernel.
enum class SelectionMode {
  /// Map extracted features through the trained table (core/plan_select):
  /// no candidate sweep, `build_ms` = 0. The chosen kernel is still priced
  /// once (that run is the plan's modelled time, not selection overhead).
  Predict,
  /// Legacy exhaustive candidate sweep — simulate every CF candidate and
  /// keep the fastest. `build_ms` charges the non-winning runs. Sum only:
  /// other reductions take the prediction, as in Predict mode.
  Exact,
};

/// Options for one tuning run.
struct AutotuneOptions {
  /// Device the candidate times are modelled for (the tuned choice is
  /// device-specific: the paper's two machines disagree on CRC's value).
  gpusim::DeviceSpec device;
  /// Simulator block-sampling budget per candidate simulation; the
  /// default keeps a 4-candidate sweep cheaper than one full launch.
  std::uint64_t sample_blocks = 512;
  /// Predictor by default; Exact is the fallback/offline-trainer path.
  SelectionMode mode = SelectionMode::Predict;
  /// Online-refinement knob (Predict mode, Sum only): after pricing the
  /// predicted kernel, escalate to the exact sweep when
  ///   time(predicted) > retune_regret * time(fixed rule).
  /// 0 disables refinement; values in (0, 1] verify every prediction;
  /// values > 1 retune only when the prediction looks worse than the
  /// paper's fixed rule by that factor. The escalation's extra profiling
  /// runs are charged to `build_ms` like an Exact sweep.
  double retune_regret = 0.0;
  AutotuneOptions();  // defaults to gtx1080ti
};

/// The candidate set the tuner considers for (a, n) on `device`: Crc
/// always; the CWM variants when n > 32 (there is nothing to coarsen
/// below one warp of columns); HybridMma when the matrix has at least one
/// row at or above the MMA tile K-dim (an empty dense partition makes
/// hybrid degenerate CRC plus permutation overhead — structurally not a
/// candidate, which is how the selector "declines" ragged matrices).
std::vector<SpmmAlgo> autotune_candidates(const Csr& a, index_t n,
                                          const gpusim::DeviceSpec& device);

/// Cheap selection with no simulation: the trained predictor
/// (core/plan_select) clamped to autotune_candidates (a table trained for
/// a different kernel zoo falls back to the fixed rule). This is the
/// kernel Predict-mode autotune prices, so a caller that only needs the
/// kernel name can never disagree with what the serving layer's cached
/// plans predict.
SpmmAlgo select_spmm_algo(const Csr& a, index_t n,
                          const gpusim::DeviceSpec& device);

struct AutotuneResult {
  /// Best candidate found (Crc, a CrcCwm variant, or HybridMma).
  SpmmAlgo best;
  /// What the paper's fixed dispatch would pick for this N.
  SpmmAlgo default_choice;
  /// Modelled time per priced kernel (ms), under the requested
  /// reduction. A Sum sweep (Exact mode, or a retune): every candidate.
  /// Otherwise the predicted kernel alone, plus the fixed rule when
  /// `retune_regret` compared against it. Exact mode therefore holds both
  /// `best` and `default_choice`, and their ratio is the fixed rule's
  /// margin.
  std::map<SpmmAlgo, double> times_ms;
  /// Modelled device time selection itself cost: the candidate profiling
  /// runs beyond the one that prices the chosen kernel. 0 for a pure
  /// prediction (and for n <= 32, where Crc is the only candidate); the
  /// serving layer charges this to the device clock on cold plan builds.
  double build_ms = 0.0;
  /// `best` came from the trained predictor: Predict mode, or any
  /// non-Sum reduction.
  bool predicted = false;
  /// Predict mode escalated to the sweep (see retune_regret).
  bool retuned = false;
  /// A retune found a candidate strictly faster than the prediction.
  bool mispredicted = false;
  /// The compiled plan: the winner's row-partition step list. Single-step
  /// over the identity permutation for every non-hybrid winner (exact
  /// pre-PlanStep behavior); dense-partition MMA step followed by the
  /// ragged SIMT step when HybridMma wins. Step times sum to
  /// times_ms.at(best).
  std::vector<PlanStep> steps;
};

/// Select, price and compile the plan for one SpMM shape: (a, n) under
/// `reduce` on a device. Predict mode prices only the predicted kernel;
/// Exact mode simulates every candidate (only Crc and, for matrices with
/// dense rows, hybrid when n <= 32 — there is nothing to coarsen) and
/// returns the fastest. The sweep, Exact or a retune, runs only for Sum:
/// it is calibrated for the standard semiring, so every other reduction
/// takes the predicted kernel in either mode, priced under that
/// reduction. Deterministic for fixed inputs; the serving layer's
/// PlanCache builds every plan through this call and caches it per
/// (graph, device, n, reduce).
AutotuneResult autotune_spmm(const Csr& a, index_t n,
                             const AutotuneOptions& opt = AutotuneOptions(),
                             ReduceKind reduce = ReduceKind::Sum);

}  // namespace gespmm
