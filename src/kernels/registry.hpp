#pragma once
/// \file registry.hpp
/// Uniform runtime dispatch over every SpMM implementation in the project:
/// benches and tests name an algorithm and get back a simulated launch
/// result (metrics + modelled time) with the output written into the
/// problem's C matrix.

#include <string>
#include <vector>

#include "gpusim/launch.hpp"
#include "kernels/semiring.hpp"
#include "kernels/spmm_problem.hpp"
#include "sparse/aspt.hpp"

namespace gespmm::kernels {

enum class SpmmAlgo {
  Naive,       ///< Algorithm 1 (simple parallel CSR SpMM)
  Crc,         ///< Algorithm 2 (Coalesced Row Caching)
  CrcCwm2,     ///< Algorithm 3, coarsening factor 2 (GE-SpMM default, N>32)
  CrcCwm4,     ///< Algorithm 3, CF=4
  CrcCwm8,     ///< Algorithm 3, CF=8
  GeSpMM,      ///< Adaptive: CRC for N<=32, CRC+CWM(CF=2) otherwise (Fig. 7)
  RowSplitGB,  ///< GraphBLAST rowsplit (the GraphBLAST baseline, Fig. 11)
  Csrmm2,      ///< cuSPARSE csrmm2 proxy (column-major C, sum only)
  Gunrock,     ///< graph-engine advance (edge-parallel, sum only)
  DglFallback, ///< DGL's scalar SpMM-like fallback kernel
  Aspt,        ///< ASpT tiled kernel (sum only; preprocess charged separately)
  HybridMma,   ///< Density-partitioned hybrid: dense rows on the MMA pipe,
               ///< ragged rows on CRC (spmm_hybrid.hpp)
};

const char* algo_name(SpmmAlgo a);

/// GE-SpMM's adaptive algorithm choice (paper Fig. 7(c)): CWM is not worth
/// its overhead when one warp already covers all columns.
SpmmAlgo select_gespmm_algo(index_t n);

struct SpmmRunOptions {
  gpusim::DeviceSpec device;
  gpusim::SamplePolicy sample = gpusim::SamplePolicy::full();
  ReduceKind reduce = ReduceKind::Sum;

  SpmmRunOptions();  // defaults to gtx1080ti
};

/// Run `algo` on `p` and return the simulated launch result. C is written
/// (fully when sample is full; partially under sampling). Throws
/// std::invalid_argument for algorithms that do not support the requested
/// reduction (csrmm2/GunRock/ASpT are sum-only, as their originals are).
gpusim::LaunchResult run_spmm(SpmmAlgo algo, SpmmProblem& p,
                              const SpmmRunOptions& opt = SpmmRunOptions());

/// ASpT with a caller-provided prebuilt operand (so benches can charge
/// preprocessing separately from kernel time).
gpusim::LaunchResult run_spmm_aspt(const struct AsptDevice& aspt, SpmmProblem& p,
                                   const SpmmRunOptions& opt = SpmmRunOptions());

/// Device time the ASpT preprocessing pass would take (traffic from the
/// build result through the device's bandwidth model).
double aspt_preprocess_time_ms(const sparse::AsptBuildResult& build,
                               const gpusim::DeviceSpec& dev);

}  // namespace gespmm::kernels
