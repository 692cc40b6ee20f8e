#include "kernels/registry.hpp"

#include <stdexcept>

#include "kernels/spmm_aspt.hpp"
#include "kernels/spmm_crc.hpp"
#include "kernels/spmm_csrmm2.hpp"
#include "kernels/spmm_dgl_fallback.hpp"
#include "kernels/spmm_gunrock.hpp"
#include "kernels/spmm_hybrid.hpp"
#include "kernels/spmm_naive.hpp"
#include "kernels/spmm_rowsplit.hpp"

namespace gespmm::kernels {

SpmmRunOptions::SpmmRunOptions() : device(gpusim::gtx1080ti()) {}

const char* algo_name(SpmmAlgo a) {
  switch (a) {
    case SpmmAlgo::Naive: return "naive(alg1)";
    case SpmmAlgo::Crc: return "crc(alg2)";
    case SpmmAlgo::CrcCwm2: return "crc+cwm(cf=2)";
    case SpmmAlgo::CrcCwm4: return "crc+cwm(cf=4)";
    case SpmmAlgo::CrcCwm8: return "crc+cwm(cf=8)";
    case SpmmAlgo::GeSpMM: return "ge-spmm";
    case SpmmAlgo::RowSplitGB: return "rowsplit(graphblast)";
    case SpmmAlgo::Csrmm2: return "csrmm2(cusparse)";
    case SpmmAlgo::Gunrock: return "advance(gunrock)";
    case SpmmAlgo::DglFallback: return "dgl-fallback";
    case SpmmAlgo::Aspt: return "aspt";
    case SpmmAlgo::HybridMma: return "hybrid(mma+simt)";
  }
  return "?";
}

SpmmAlgo select_gespmm_algo(index_t n) {
  return n <= gpusim::kWarpSize ? SpmmAlgo::Crc : SpmmAlgo::CrcCwm2;
}

namespace {

template <template <typename> class KernelT>
gpusim::LaunchResult run_semiring_kernel(SpmmProblem& p, const SpmmRunOptions& opt) {
  return with_semiring(opt.reduce, [&]<typename R>() {
    KernelT<R> k(p);
    return gpusim::launch(opt.device, k, opt.sample);
  });
}

template <int CF>
gpusim::LaunchResult run_crc(SpmmProblem& p, const SpmmRunOptions& opt) {
  return with_semiring(opt.reduce, [&]<typename R>() {
    SpmmCrcKernel<R, CF> k(p);
    return gpusim::launch(opt.device, k, opt.sample);
  });
}

void require_sum(const SpmmRunOptions& opt, const char* what) {
  if (opt.reduce != ReduceKind::Sum) {
    throw std::invalid_argument(std::string(what) +
                                " supports only the standard sum reduction");
  }
}

gpusim::LaunchResult run_gunrock(SpmmProblem& p, const SpmmRunOptions& opt) {
  require_sum(opt, "gunrock advance");
  // Expand the edge frontier (source vertex per edge) as GunRock does.
  std::vector<index_t> src(static_cast<std::size_t>(p.A.nnz()));
  for (index_t i = 0; i < p.A.rows; ++i) {
    for (index_t e = p.A.rowptr[static_cast<std::size_t>(i)];
         e < p.A.rowptr[static_cast<std::size_t>(i) + 1]; ++e) {
      src[static_cast<std::size_t>(e)] = i;
    }
  }
  gpusim::DeviceArray<index_t> edge_src{std::span<const index_t>(src)};
  p.C.fill(0.0f);  // atomics accumulate into zero-initialized C
  SpmmGunrockKernel k(p, edge_src);
  return gpusim::launch(opt.device, k, opt.sample);
}

}  // namespace

double aspt_preprocess_time_ms(const sparse::AsptBuildResult& build,
                               const gpusim::DeviceSpec& dev) {
  // Preprocessing streams the matrix several times with scattered access
  // (histogram, per-panel sort, regroup); charge its traffic at a quarter
  // of peak DRAM bandwidth plus a few kernel launches.
  const double bytes = static_cast<double>(build.preprocess_traffic_bytes);
  return bytes / (dev.dram_bw_gbps * 0.25 * 1e9) * 1e3 + 4.0 * dev.launch_overhead_us * 1e-3;
}

gpusim::LaunchResult run_spmm_aspt(const AsptDevice& aspt, SpmmProblem& p,
                                   const SpmmRunOptions& opt) {
  require_sum(opt, "aspt");
  SpmmAsptKernel k(aspt, p);
  return gpusim::launch(opt.device, k, opt.sample);
}

gpusim::LaunchResult run_spmm(SpmmAlgo algo, SpmmProblem& p, const SpmmRunOptions& opt) {
  switch (algo) {
    case SpmmAlgo::Naive: return run_semiring_kernel<SpmmNaiveKernel>(p, opt);
    case SpmmAlgo::Crc: return run_crc<1>(p, opt);
    case SpmmAlgo::CrcCwm2: return run_crc<2>(p, opt);
    case SpmmAlgo::CrcCwm4: return run_crc<4>(p, opt);
    case SpmmAlgo::CrcCwm8: return run_crc<8>(p, opt);
    case SpmmAlgo::GeSpMM: return run_spmm(select_gespmm_algo(p.n()), p, opt);
    case SpmmAlgo::RowSplitGB: return run_semiring_kernel<SpmmRowSplitGBKernel>(p, opt);
    case SpmmAlgo::Csrmm2: {
      require_sum(opt, "csrmm2");
      if (p.C.layout() != Layout::ColMajor) {
        throw std::invalid_argument("csrmm2 writes column-major C; "
                                    "construct the problem with Layout::ColMajor");
      }
      SpmmCsrmm2Kernel k(p);
      return gpusim::launch(opt.device, k, opt.sample);
    }
    case SpmmAlgo::Gunrock: return run_gunrock(p, opt);
    case SpmmAlgo::DglFallback: return run_semiring_kernel<SpmmDglFallbackKernel>(p, opt);
    case SpmmAlgo::Aspt:
      throw std::invalid_argument(
          "run_spmm(Aspt): use run_spmm_aspt with a prebuilt AsptDevice "
          "(preprocessing is a separate, charged step)");
    case SpmmAlgo::HybridMma: return run_spmm_hybrid(p, opt);
  }
  throw std::invalid_argument("unknown SpmmAlgo");
}

}  // namespace gespmm::kernels
