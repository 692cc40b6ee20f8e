#include "gpusim/launch.hpp"

#include <algorithm>
#include <vector>

namespace gespmm::gpusim {

namespace {

/// Simulated blocks an OpenMP thread takes at a time. A grid of at most this
/// many simulated blocks is a single chunk that only one thread could work
/// on, so launch() runs it on the calling thread without opening a team.
constexpr long long kBlocksPerChunk = 64;

std::vector<long long> select_blocks(long long grid, const SamplePolicy& policy,
                                     bool& sampled) {
  sampled = static_cast<std::uint64_t>(grid) > policy.max_blocks;
  const long long simulated = sampled ? static_cast<long long>(policy.max_blocks) : grid;
  std::vector<long long> blocks(static_cast<std::size_t>(simulated));
  for (long long i = 0; i < simulated; ++i) {
    blocks[static_cast<std::size_t>(i)] = sampled ? i * grid / simulated : i;
  }
  return blocks;
}

void finalize_result(LaunchResult& res, const DeviceSpec& dev, LaunchMetrics total,
                     bool sampled, long long simulated) {
  const long long grid = res.config.grid;
  if (sampled && simulated > 0) {
    const double scale = static_cast<double>(grid) / static_cast<double>(simulated);
    total.scale(scale);
    total.sample_scale = scale;
  }
  total.num_blocks = static_cast<std::uint64_t>(grid);
  total.num_warps = static_cast<std::uint64_t>(grid) *
                    static_cast<std::uint64_t>((res.config.block + kWarpSize - 1) / kWarpSize);
  res.metrics = total;
  res.time = estimate_time(dev, res.config, total, res.occupancy);
}

}  // namespace

LaunchResult launch_sequential_shared_l2(const DeviceSpec& dev, const Kernel& kernel,
                                         const SamplePolicy& policy) {
  LaunchResult res;
  res.kernel_name = kernel.name();
  res.config = kernel.config(dev);
  res.occupancy = compute_occupancy(dev, res.config);
  res.achieved_occupancy = achieved_occupancy(dev, res.config, res.occupancy);

  bool sampled = false;
  const auto blocks = select_blocks(res.config.grid, policy, sampled);

  BlockRuntime rt;
  rt.configure(dev, res.config);
  // One shared L2 model at full device capacity, kept warm across blocks.
  rt.l2.configure(dev.l2_bytes / static_cast<std::size_t>(dev.line_bytes));
  rt.keep_l2_warm = true;
  for (long long b : blocks) {
    BlockCtx blk(rt, res.config, b);
    kernel.run_block(blk);
  }
  finalize_result(res, dev, rt.metrics, sampled, static_cast<long long>(blocks.size()));
  return res;
}

LaunchResult launch(const DeviceSpec& dev, const Kernel& kernel,
                    const SamplePolicy& policy) {
  LaunchResult res;
  res.kernel_name = kernel.name();
  res.config = kernel.config(dev);
  res.occupancy = compute_occupancy(dev, res.config);
  res.achieved_occupancy = achieved_occupancy(dev, res.config, res.occupancy);

  // Evenly spaced block ids keep the sample representative for structured
  // grids (e.g. row-major block-per-row layouts).
  bool sampled = false;
  const auto blocks = select_blocks(res.config.grid, policy, sampled);
  const long long simulated = static_cast<long long>(blocks.size());

  // Metrics merge by integer sums and a max, so how blocks are split across
  // threads never changes the result.
  LaunchMetrics total;
  if (simulated <= kBlocksPerChunk) {
    BlockRuntime rt;
    rt.configure(dev, res.config);
    for (long long b : blocks) {
      BlockCtx blk(rt, res.config, b);
      kernel.run_block(blk);
    }
    total = rt.metrics;
  } else {
#pragma omp parallel
    {
      // Each simulation thread keeps its own runtime (caches, counters, smem).
      BlockRuntime rt;
      rt.configure(dev, res.config);
#pragma omp for schedule(dynamic, kBlocksPerChunk)
      for (long long i = 0; i < simulated; ++i) {
        BlockCtx blk(rt, res.config, blocks[static_cast<std::size_t>(i)]);
        kernel.run_block(blk);
      }
#pragma omp critical
      total += rt.metrics;
    }
  }

  finalize_result(res, dev, total, sampled, simulated);
  return res;
}

LaunchResult compose(std::span<const LaunchResult> launches) {
  if (launches.empty()) return {};
  LaunchResult total = launches.front();
  const LaunchResult* slowest = &launches.front();
  for (const LaunchResult& r : launches.subspan(1)) {
    total.metrics += r.metrics;
    TimeBreakdown& t = total.time;
    t.dram_ms += r.time.dram_ms;
    t.l2_ms += r.time.l2_ms;
    t.l1_ms += r.time.l1_ms;
    t.smem_ms += r.time.smem_ms;
    t.issue_ms += r.time.issue_ms;
    t.mma_ms += r.time.mma_ms;
    t.tail_ms += r.time.tail_ms;
    t.launch_overhead_ms += r.time.launch_overhead_ms;
    t.total_ms += r.time.total_ms;
    if (r.time.total_ms > slowest->time.total_ms) slowest = &r;
  }
  total.config = slowest->config;
  total.occupancy = slowest->occupancy;
  total.achieved_occupancy = slowest->achieved_occupancy;
  total.time.utilization = slowest->time.utilization;
  total.time.concurrency = slowest->time.concurrency;
  total.time.bottleneck = slowest->time.bottleneck;
  return total;
}

}  // namespace gespmm::gpusim
