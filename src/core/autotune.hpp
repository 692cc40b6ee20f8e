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
///    every candidate is simulated with block sampling and the best CF
///    returned with its margin over the default. Exhaustive, and the
///    profiling runs cost real modelled device time (`build_ms`).
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
  /// keep the fastest. `build_ms` charges the non-winning runs.
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
  /// Online-refinement knob (Predict mode only): after pricing the
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
/// (core/plan_select) clamped to autotune_candidates — exactly the choice
/// Predict-mode autotune makes before pricing it, so a caller that only
/// needs the kernel name can never disagree with what the serving
/// layer's cached plans predict.
SpmmAlgo select_spmm_algo(const Csr& a, index_t n,
                          const gpusim::DeviceSpec& device);

struct AutotuneResult {
  /// Best candidate found (Crc, a CrcCwm variant, or HybridMma).
  SpmmAlgo best;
  /// What the paper's fixed dispatch would pick for this N.
  SpmmAlgo default_choice;
  /// Modelled time per candidate (ms). Exact mode: every candidate.
  /// Predict mode: the predicted kernel, plus the fixed rule when it
  /// differs, plus the remaining candidates after a retune.
  std::map<SpmmAlgo, double> times_ms;
  /// time(default) / time(best) — 1.0 means the fixed rule was optimal.
  double gain_over_default = 1.0;
  /// Modelled device time selection itself cost: the candidate profiling
  /// runs beyond the one that prices the chosen kernel. 0 for a pure
  /// prediction (and for n <= 32, where Crc is the only candidate); the
  /// serving layer charges this to the device clock on cold plan builds.
  double build_ms = 0.0;
  /// `best` came from the trained predictor (no sweep ran).
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

/// Tune the kernel choice for (a, n) on a device. Predict mode prices
/// only the predicted kernel; Exact mode simulates every CF candidate
/// (only Crc when n <= 32 — there is nothing to coarsen) and returns the
/// fastest with its margin over the paper's fixed rule. Deterministic
/// for fixed inputs; the serving layer's PlanCache caches results per
/// (graph, device, n).
AutotuneResult autotune_spmm(const Csr& a, index_t n,
                             const AutotuneOptions& opt = AutotuneOptions());

}  // namespace gespmm
