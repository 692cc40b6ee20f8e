#pragma once
/// \file launch.hpp
/// The launch engine: executes a Kernel block-by-block, optionally sampling
/// a deterministic subset of blocks and extrapolating the metrics.

#include <cstdint>
#include <span>
#include <string>

#include "gpusim/cost_model.hpp"
#include "gpusim/device.hpp"
#include "gpusim/metrics.hpp"
#include "gpusim/warp.hpp"

namespace gespmm::gpusim {

/// Block-sampling policy. With the default (max_blocks = unlimited) every
/// block is executed and output buffers are complete. With a finite
/// max_blocks, evenly spaced blocks are executed and metric counters are
/// scaled by grid/simulated — standard sampling-simulator practice; only
/// valid when performance metrics (not full outputs) are needed. Caveat:
/// max-type statistics (max_block_gld_instructions, which drives the
/// cost model's load-imbalance tail term) are taken over the sampled
/// blocks only and can miss a rare hub block; use full simulation when
/// extreme skew matters.
struct SamplePolicy {
  std::uint64_t max_blocks = UINT64_MAX;
  static SamplePolicy full() { return {}; }
  static SamplePolicy sampled(std::uint64_t max_blocks) { return {max_blocks}; }
};

struct LaunchResult {
  LaunchMetrics metrics;
  LaunchConfig config;
  Occupancy occupancy;
  TimeBreakdown time;
  double achieved_occupancy = 0.0;
  std::string kernel_name;

  double time_ms() const { return time.total_ms; }
  /// nvprof gld_throughput in GB/s.
  double gld_throughput_gbps(int transaction_bytes = 32) const {
    return time.total_ms > 0.0
               ? static_cast<double>(metrics.gld_bytes(transaction_bytes)) /
                     (time.total_ms * 1e-3) / 1e9
               : 0.0;
  }
  /// Achieved GFLOP/s given a nominal FLOP count (the paper uses 2*nnz*N).
  double gflops(double nominal_flops) const {
    return time.total_ms > 0.0 ? nominal_flops / (time.total_ms * 1e-3) / 1e9 : 0.0;
  }
};

/// Execute `kernel` on `dev`. Blocks are independent and are simulated in
/// parallel with per-thread cache/metric state; results are deterministic.
LaunchResult launch(const DeviceSpec& dev, const Kernel& kernel,
                    const SamplePolicy& policy = SamplePolicy::full());

/// Launches that run one after another, as one result: the metrics and
/// every time term are summed in launch order; the config, occupancy,
/// achieved occupancy, utilization, concurrency and bottleneck are the
/// slowest launch's (the first one's on ties), and the kernel name is the
/// first launch's. No launches compose to a default LaunchResult.
LaunchResult compose(std::span<const LaunchResult> launches);

/// Validation mode: execute blocks *sequentially* against one L2 cache
/// model sized to the device's full L2 (instead of the default per-block
/// slice approximation that keeps the parallel engine deterministic).
/// Slower; used by tests to bound the approximation error of the default
/// engine (DESIGN.md §4).
LaunchResult launch_sequential_shared_l2(const DeviceSpec& dev, const Kernel& kernel,
                                         const SamplePolicy& policy = SamplePolicy::full());

}  // namespace gespmm::gpusim
