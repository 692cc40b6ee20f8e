/// Ablation study (extension beyond the paper, DESIGN.md Section 5):
/// decomposes GE-SpMM's gains into mechanisms by toggling cost-model and
/// kernel features on the 65K/650K profiling matrix at N=512:
///  1. coalescing      — naive -> CRC transaction reduction at fixed ILP
///  2. sparse reuse    — CWM's transaction reduction at ILP forced to 1
///  3. ILP             — CWM with its real ILP vs ILP forced to 1
///  4. L1 architecture — the same kernels on Pascal vs Turing configs
/// This is the quantitative version of the paper's Section III narrative.

#include <cstdio>

#include "bench_common/registry.hpp"
#include "gpusim/gpusim.hpp"
#include "kernels/spmm_crc.hpp"
#include "kernels/spmm_naive.hpp"
#include "sparse/datasets.hpp"

using namespace gespmm;
using namespace gespmm::kernels;
using bench::Table;

namespace {

/// Wraps a kernel but overrides the declared ILP (isolates the
/// latency-hiding contribution of coarsening from its traffic reduction).
class IlpOverride final : public gpusim::Kernel {
 public:
  IlpOverride(const gpusim::Kernel& inner, double ilp) : inner_(&inner), ilp_(ilp) {}
  gpusim::LaunchConfig config(const gpusim::DeviceSpec& dev) const override {
    auto cfg = inner_->config(dev);
    cfg.ilp = ilp_;
    return cfg;
  }
  void run_block(gpusim::BlockCtx& blk) const override { inner_->run_block(blk); }
  std::string name() const override { return inner_->name() + "+ilp-off"; }

 private:
  const gpusim::Kernel* inner_;
  double ilp_;
};

}  // namespace

GESPMM_BENCH(ablation_model) {
  const auto& opt = ctx.opt;
  const auto matrix = sparse::profile_matrix_65k();
  const auto sample = gpusim::SamplePolicy::sampled(opt.sample_blocks * 4);

  for (const auto& dev : opt.devices) {
    bench::banner("Ablation: mechanism decomposition (device " + dev.name +
                  ", M=65K nnz=650K, N=512)");
    SpmmProblem p(matrix, 512);
    SpmmNaiveKernel<> naive(p);
    SpmmCrcKernel<> crc(p);
    SpmmCrcKernel<SumReduce, 2> cwm(p);
    IlpOverride cwm_noilp(cwm, 1.0);

    const auto r_naive = gpusim::launch(dev, naive, sample);
    const auto r_crc = gpusim::launch(dev, crc, sample);
    const auto r_cwm_noilp = gpusim::launch(dev, cwm_noilp, sample);
    const auto r_cwm = gpusim::launch(dev, cwm, sample);

    Table table({"variant", "GLT(x1e6)", "time(ms)", "vs naive", "mechanism"});
    auto row = [&](const char* name, const gpusim::LaunchResult& r, const char* mech) {
      const bool is_baseline = &r == &r_naive;
      ctx.record(dev.name, "M=65K nnz=650K", name, 512, r.time_ms(),
                 is_baseline ? 0.0 : r_naive.time_ms() / r.time_ms());
      table.add_row({name, Table::fmt(static_cast<double>(r.metrics.gld_transactions) / 1e6),
                     Table::fmt(r.time_ms(), 4),
                     Table::fmt(r_naive.time_ms() / r.time_ms(), 3), mech});
    };
    row("alg1 (naive)", r_naive, "baseline");
    row("alg2 (CRC)", r_crc, "+ coalesced sparse loads");
    row("alg3, ILP disabled", r_cwm_noilp, "+ cross-warp sparse reuse only");
    row("alg3 (CRC+CWM)", r_cwm, "+ instruction-level parallelism");
    table.print();

    const double reuse_gain = r_crc.time_ms() / r_cwm_noilp.time_ms();
    const double ilp_gain = r_cwm_noilp.time_ms() / r_cwm.time_ms();
    std::printf(
        "decomposition on %s: coalescing %.3fx, sparse reuse %.3fx, ILP %.3fx\n",
        dev.name.c_str(), r_naive.time_ms() / r_crc.time_ms(), reuse_gain, ilp_gain);
  }
  std::printf(
      "\nreading: on Pascal the coalescing term dominates; on Turing the L1\n"
      "absorbs broadcasts so nearly all of GE-SpMM's gain comes from CWM's\n"
      "reuse + ILP — the architectural split the paper observed empirically.\n");
}
