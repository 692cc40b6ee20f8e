#pragma once
/// \file report.hpp
/// Structured benchmark results: one `BenchRecord` per measured
/// (bench, device, matrix, algo, N) point, collected into a `BenchReport`
/// with per-(bench, device) geomean rollups, serialized to JSON by the
/// hand-rolled writer in json.hpp. This is the machine-readable side of
/// every `bench_*` binary; `scripts/bench_compare.py` diffs two reports.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common/json.hpp"

namespace gespmm::bench {

/// One measured point. `speedup` is 0 when the row has no natural
/// baseline ratio (e.g. a profile-only row); `wallclock` marks host
/// wall-clock measurements, which are machine-dependent and therefore
/// excluded from strict timing comparison (simulated times are exactly
/// reproducible, wall times are not).
struct BenchRecord {
  std::string bench;
  std::string device;
  std::string matrix;
  std::string algo;
  int n = 0;
  double time_ms = 0.0;
  double speedup = 0.0;
  bool wallclock = false;

  Json to_json() const;
  bool operator==(const BenchRecord&) const = default;
};

/// Per-(bench, device) aggregate, mirroring the paper's geometric-mean
/// reporting convention. `geomean_speedup` is 0 when no record in the
/// group carries a speedup.
struct BenchRollup {
  std::string bench;
  std::string device;
  int count = 0;
  double geomean_time_ms = 0.0;
  double geomean_speedup = 0.0;
  bool wallclock = false;

  Json to_json() const;
};

/// A full run: the options it ran under, every record, and the rollups.
struct BenchReport {
  static constexpr int kSchemaVersion = 1;

  int schema_version = kSchemaVersion;
  double snap_scale = 0.0;
  int max_graphs = 0;
  std::uint64_t sample_blocks = 0;
  bool quick = false;
  std::vector<BenchRecord> records;

  /// Recompute rollups from `records`, sorted by (bench, device).
  std::vector<BenchRollup> rollups() const;

  Json to_json() const;

  /// Write `to_json().dump(2)` and a newline; returns false (and reports
  /// nothing) only on I/O failure.
  bool write_file(const std::string& path) const;
};

}  // namespace gespmm::bench
