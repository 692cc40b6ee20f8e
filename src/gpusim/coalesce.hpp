#pragma once
/// \file coalesce.hpp
/// Warp-level memory coalescing: map the byte addresses issued by one SIMT
/// load/store instruction onto 32-byte transactions, the unit nvprof counts.
///
/// GPUs merge the requests of a warp into as few transactions as possible.
/// Three access shapes cover the kernels in this project:
///  - contiguous: lane l accesses base + l*sizeof(T)  -> O(1) segment range
///  - broadcast:  all lanes access the same element   -> exactly 1 segment
///  - gather:     arbitrary per-lane addresses        -> sort-unique (n<=32)

#include <algorithm>
#include <array>
#include <cstdint>

#include "gpusim/types.hpp"

namespace gespmm::gpusim {

/// Result of coalescing one SIMT memory instruction.
///
/// Only the first `transactions` entries of `segments` are written; the
/// entries past them are unspecified and must not be read. The simulator
/// coalesces every load and store it models, so this result is built once
/// per simulated instruction and is deliberately not zero-filled.
struct CoalesceResult {
  /// Number of 32-byte transactions issued.
  int transactions = 0;
  /// Bytes actually referenced by the program (unique addresses * size).
  std::uint64_t useful_bytes = 0;
  /// The distinct 32-byte-aligned segment addresses (for cache lookups),
  /// in entries [0, transactions).
  std::array<std::uint64_t, 2 * kWarpSize> segments;
};

inline constexpr int kSegmentShift = 5;  // 32-byte transactions

/// Contiguous access: active lanes l in [lo, hi] access
/// [base + lo*esize, base + (hi+1)*esize). Lanes outside the mask do not
/// request bytes but segments spanning mask holes are still transacted,
/// exactly as on hardware.
inline CoalesceResult coalesce_contiguous(std::uint64_t base_addr, int esize,
                                          LaneMask mask) {
  CoalesceResult r;
  if (mask == 0) return r;
  const int lo = std::countr_zero(mask);
  const int hi = kWarpSize - 1 - std::countl_zero(mask);
  const std::uint64_t first = base_addr + static_cast<std::uint64_t>(lo) * esize;
  const std::uint64_t last = base_addr + static_cast<std::uint64_t>(hi) * esize + esize - 1;
  const std::uint64_t seg_first = first >> kSegmentShift;
  const std::uint64_t seg_last = last >> kSegmentShift;
  r.transactions = static_cast<int>(seg_last - seg_first + 1);
  for (int i = 0; i < r.transactions && i < static_cast<int>(r.segments.size()); ++i) {
    r.segments[static_cast<std::size_t>(i)] = (seg_first + static_cast<std::uint64_t>(i))
                                              << kSegmentShift;
  }
  r.useful_bytes = static_cast<std::uint64_t>(active_lanes(mask)) * esize;
  return r;
}

/// Broadcast: every active lane reads the same naturally aligned element.
/// One transaction moves 32 bytes of which only `esize` are useful — this is
/// the pattern that makes the naive SpMM (Algorithm 1) inefficient.
inline CoalesceResult coalesce_broadcast(std::uint64_t addr, int esize, LaneMask mask) {
  CoalesceResult r;
  if (mask == 0) return r;
  r.transactions = 1;
  r.segments[0] = (addr >> kSegmentShift) << kSegmentShift;
  r.useful_bytes = static_cast<std::uint64_t>(esize);
  return r;
}

/// Arbitrary gather/scatter. Elements are naturally aligned so each lane
/// touches exactly one segment; duplicates across lanes are merged both for
/// transactions and for useful bytes.
inline CoalesceResult coalesce_gather(const Lanes<std::uint64_t>& addrs, int esize,
                                      LaneMask mask) {
  CoalesceResult r;
  if (mask == 0) return r;
  std::array<std::uint64_t, kWarpSize> act{};
  int n = 0;
  for (int l = 0; l < kWarpSize; ++l) {
    if (lane_active(mask, l)) {
      act[static_cast<std::size_t>(n++)] = addrs[static_cast<std::size_t>(l)];
    }
  }
  std::sort(act.begin(), act.begin() + n);
  std::uint64_t prev_addr = ~std::uint64_t{0};
  std::uint64_t prev_seg = ~std::uint64_t{0};
  for (int i = 0; i < n; ++i) {
    const std::uint64_t a = act[static_cast<std::size_t>(i)];
    if (a != prev_addr) {
      r.useful_bytes += static_cast<std::uint64_t>(esize);
      prev_addr = a;
    }
    const std::uint64_t seg = a >> kSegmentShift;
    if (seg != prev_seg) {
      r.segments[static_cast<std::size_t>(r.transactions++)] = seg << kSegmentShift;
      prev_seg = seg;
    }
  }
  return r;
}

}  // namespace gespmm::gpusim
