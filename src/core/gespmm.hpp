#pragma once
/// \file gespmm.hpp
/// GE-SpMM public API.
///
/// Two entry-point families:
///  - **compute**: `gespmm::spmm` / `gespmm::spmm_like` run the SpMM(-like)
///    operation on the host (OpenMP-parallel) and write C. This is the
///    functional path a GNN framework embeds — CSR in, row-major dense out,
///    no preprocessing, user-defined reductions supported.
///  - **profile**: `gespmm::profile_spmm` executes the chosen kernel on the
///    warp-level GPU simulator and returns nvprof-style metrics plus a
///    modelled execution time for a selected device (GTX 1080Ti or
///    RTX 2080). This is the path every benchmark uses.
///
/// Algorithm selection follows the paper's Fig. 7: CRC (Algorithm 2) when
/// N <= 32, CRC+CWM with CF=2 (Algorithm 3) when N > 32. Both are
/// overridable.

#include "gpusim/launch.hpp"
#include "kernels/dense.hpp"
#include "kernels/registry.hpp"
#include "kernels/semiring.hpp"
#include "sparse/csr.hpp"

namespace gespmm {

using kernels::DenseMatrix;
using kernels::Layout;
using kernels::ReduceKind;
using kernels::SpmmAlgo;
using sparse::Csr;
using sparse::index_t;
using sparse::value_t;

/// C = A (*) B with one of the built-in reductions. B must be
/// A.cols x N and C A.rows x N, both row-major; throws
/// std::invalid_argument otherwise. Host execution, OpenMP-parallel.
void spmm(const Csr& a, const DenseMatrix& b, DenseMatrix& c,
          ReduceKind reduce = ReduceKind::Sum);

/// User-defined SpMM-like operation (paper Section IV-A): the caller
/// provides init and reduce, and optionally combine and finalize (see
/// kernels::CustomReduceOp). Runs the same host fold as spmm(), with the
/// same shape and layout contract; also throws std::invalid_argument when
/// init or reduce is missing.
using kernels::CustomReduceOp;
void spmm_like(const Csr& a, const DenseMatrix& b, DenseMatrix& c,
               const CustomReduceOp& op);

/// Options for the simulated/profiled path.
struct ProfileOptions {
  gpusim::DeviceSpec device;
  gpusim::SamplePolicy sample = gpusim::SamplePolicy::full();
  /// GeSpMM = adaptive selection per Fig. 7(c).
  SpmmAlgo algo = SpmmAlgo::GeSpMM;
  ReduceKind reduce = ReduceKind::Sum;

  ProfileOptions();  // defaults to gtx1080ti
};

/// Result of a profiled SpMM: which kernel ran and its launch result.
struct SpmmProfile {
  SpmmAlgo algo;
  gpusim::LaunchResult result;

  double time_ms() const { return result.time_ms(); }
  double gflops(double nnz, double n) const { return result.gflops(2.0 * nnz * n); }
};

/// Execute the kernel on the simulator against (A, B) writing C, returning
/// metrics and modelled time. B/C shapes as in spmm(); csrmm2 requires a
/// column-major C (it is the only kernel with that convention).
SpmmProfile profile_spmm(const Csr& a, const DenseMatrix& b, DenseMatrix& c,
                         const ProfileOptions& opt = ProfileOptions());

/// Metrics-only convenience: prices the kernel on address-only B and C (no
/// dense values are allocated; metrics and modelled time equal a run on
/// real operands bit for bit) and optionally samples blocks — what
/// parameter sweeps use.
SpmmProfile profile_spmm_shape(const Csr& a, index_t n,
                               const ProfileOptions& opt = ProfileOptions());

/// Library version string.
const char* version();

}  // namespace gespmm
