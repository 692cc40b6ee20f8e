#include "core/gespmm.hpp"

#include <stdexcept>

#include "core/version.hpp"
#include "kernels/spmm_host.hpp"
#include "kernels/spmm_problem.hpp"

namespace gespmm {

ProfileOptions::ProfileOptions() : device(gpusim::gtx1080ti()) {}

const char* version() { return GESPMM_VERSION; }

namespace {

void check_shapes(const Csr& a, const DenseMatrix& b, const DenseMatrix& c) {
  if (b.rows() != a.cols) {
    throw std::invalid_argument("spmm: B.rows must equal A.cols");
  }
  if (c.rows() != a.rows || c.cols() != b.cols()) {
    throw std::invalid_argument("spmm: C must be A.rows x B.cols");
  }
}

}  // namespace

void spmm(const Csr& a, const DenseMatrix& b, DenseMatrix& c, ReduceKind reduce) {
  check_shapes(a, b, c);
  kernels::spmm_host_parallel(a, b, c, reduce);
}

void spmm_like(const Csr& a, const DenseMatrix& b, DenseMatrix& c,
               const CustomReduceOp& op) {
  check_shapes(a, b, c);
  kernels::spmm_host_parallel(a, b, c, op);
}

SpmmProfile profile_spmm(const Csr& a, const DenseMatrix& b, DenseMatrix& c,
                         const ProfileOptions& opt) {
  check_shapes(a, b, c);
  kernels::SpmmProblem p(a, b.cols(),
                         opt.algo == SpmmAlgo::Csrmm2 ? Layout::ColMajor
                                                      : Layout::RowMajor);
  // Share the caller's buffers by copying in/out (device arrays are
  // simulator-owned).
  p.B.device().assign(b.device().host());

  SpmmProfile prof;
  prof.algo = opt.algo == SpmmAlgo::GeSpMM ? kernels::select_gespmm_algo(b.cols())
                                           : opt.algo;
  kernels::SpmmRunOptions ro;
  ro.device = opt.device;
  ro.sample = opt.sample;
  ro.reduce = opt.reduce;
  prof.result = kernels::run_spmm(prof.algo, p, ro);

  // Copy the (layout-normalized) output back.
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t j = 0; j < b.cols(); ++j) {
      c.at(i, j) = p.C.at(i, j);
    }
  }
  return prof;
}

SpmmProfile profile_spmm_shape(const Csr& a, index_t n, const ProfileOptions& opt) {
  kernels::SpmmProblem p(a, n,
                         opt.algo == SpmmAlgo::Csrmm2 ? Layout::ColMajor : Layout::RowMajor,
                         gpusim::address_only);
  SpmmProfile prof;
  prof.algo = opt.algo == SpmmAlgo::GeSpMM ? kernels::select_gespmm_algo(n) : opt.algo;
  kernels::SpmmRunOptions ro;
  ro.device = opt.device;
  ro.sample = opt.sample;
  ro.reduce = opt.reduce;
  prof.result = kernels::run_spmm(prof.algo, p, ro);
  return prof;
}

}  // namespace gespmm
