#pragma once
/// \file types.hpp
/// Basic SIMT value types for the warp-level GPU simulator.
///
/// Kernels in this project are written warp-synchronously: a lane-level
/// variable is a 32-wide vector (`Lanes<T>`) and control-flow divergence is
/// expressed with explicit activity masks (`LaneMask`, one bit per lane).

#include <array>
#include <bit>
#include <cstdint>

namespace gespmm::gpusim {

/// Number of threads per warp. Fixed at 32, as on all NVIDIA GPUs.
inline constexpr int kWarpSize = 32;

/// One value per lane of a warp.
template <typename T>
using Lanes = std::array<T, kWarpSize>;

/// Activity mask: bit l set means lane l executes the instruction.
using LaneMask = std::uint32_t;

/// All 32 lanes active.
inline constexpr LaneMask kFullMask = 0xffffffffu;

/// Mask with the first `n` lanes active (n in [0, 32]).
constexpr LaneMask first_lanes(int n) {
  return n >= kWarpSize ? kFullMask : ((LaneMask{1} << n) - 1u);
}

/// Number of active lanes in a mask.
constexpr int active_lanes(LaneMask m) { return std::popcount(m); }

/// True if lane `l` is active in `m`.
constexpr bool lane_active(LaneMask m, int l) { return (m >> l) & 1u; }

/// Broadcast a scalar to all lanes.
template <typename T>
Lanes<T> splat(T x) {
  Lanes<T> v{};
  v.fill(x);
  return v;
}

}  // namespace gespmm::gpusim
