#pragma once
/// \file plan_step.hpp
/// PlanStep: one row-partition step of a compiled SpMM plan.
///
/// A compiled plan is a *sequence* of steps, each binding a contiguous row
/// range of the plan's row permutation to a kernel and an execution
/// pipeline. Classic single-kernel plans — the paper's fixed rule, a
/// predictor hit, an Exact-sweep winner that is not hybrid — are the
/// degenerate one-step case over the identity permutation, so their
/// behavior and outputs are exactly what the pre-partitioned pipeline
/// produced. A hybrid winner compiles to two steps: the dense partition on
/// the MMA pipe and the ragged remainder on the SIMT pipe, with the row
/// permutation owned by the hybrid kernel (kernels/spmm_hybrid.hpp).

#include <vector>

#include "core/gespmm.hpp"

namespace gespmm {

/// Execution pipeline a step is bound to.
enum class StepPipe {
  Simt,  ///< CUDA-core path (CRC / CRC+CWM family).
  Mma,   ///< Tensor-core path (dense-tile mma issues).
};

/// One row-partition step of a compiled plan.
struct PlanStep {
  /// Kernel the step's launch dispatches to. For a hybrid plan both steps
  /// carry HybridMma (the kernel owns the partition); single-kernel plans
  /// carry their winner.
  SpmmAlgo algo = SpmmAlgo::Crc;
  StepPipe pipe = StepPipe::Simt;
  /// Row range [row_begin, row_end) in the plan's row permutation (the
  /// identity for single-step plans; dense-rows-first for hybrid).
  index_t row_begin = 0;
  index_t row_end = 0;
  /// Modelled device time of this step's launch in ms.
  double modelled_ms = 0.0;

  index_t rows() const { return row_end - row_begin; }
};

/// The degenerate single-step list: all rows on one SIMT kernel.
inline std::vector<PlanStep> single_step_plan(SpmmAlgo algo, index_t rows,
                                              double modelled_ms) {
  return {PlanStep{algo, StepPipe::Simt, 0, rows, modelled_ms}};
}

/// The density-partitioned hybrid's step list: the dense rows
/// [0, dense_rows) of its row permutation on the MMA pipe, then the ragged
/// rest on SIMT. An empty partition contributes no step.
inline std::vector<PlanStep> hybrid_step_plan(index_t dense_rows, index_t rows,
                                              double dense_ms, double ragged_ms) {
  std::vector<PlanStep> steps;
  if (dense_rows > 0) {
    steps.push_back(PlanStep{SpmmAlgo::HybridMma, StepPipe::Mma, 0, dense_rows, dense_ms});
  }
  if (dense_rows < rows) {
    steps.push_back(PlanStep{SpmmAlgo::HybridMma, StepPipe::Simt, dense_rows, rows, ragged_ms});
  }
  return steps;
}

/// Sum of the steps' modelled times (a sequential composition: the steps
/// of one plan run back-to-back on the same device).
inline double plan_steps_time_ms(const std::vector<PlanStep>& steps) {
  double ms = 0.0;
  for (const auto& s : steps) ms += s.modelled_ms;
  return ms;
}

}  // namespace gespmm
