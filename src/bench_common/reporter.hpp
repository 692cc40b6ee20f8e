#pragma once
/// \file reporter.hpp
/// The collection side of the reporting subsystem: every bench registers
/// its measured rows into a `Reporter` alongside its existing `Table`
/// pretty-printing, and the shared bench main writes the accumulated
/// `BenchReport` to the path given by `--json=<path>`.

#include <string>

#include "bench_common/bench_common.hpp"
#include "bench_common/report.hpp"

namespace gespmm::bench {

class Reporter {
 public:
  explicit Reporter(const Options& opt);

  /// Set the bench id stamped onto subsequently added records.
  void begin_bench(const std::string& bench_id);

  /// Add a record; `rec.bench` is overwritten with the current bench id.
  void add(BenchRecord rec);

  /// Convenience: build + add in one call.
  void add(const std::string& device, const std::string& matrix, const std::string& algo,
           int n, double time_ms, double speedup = 0.0, bool wallclock = false);

  const BenchReport& report() const { return report_; }

  /// Serialize (records + recomputed rollups) to `path`; returns false on
  /// I/O failure.
  bool write_json(const std::string& path) const;

 private:
  BenchReport report_;
  std::string bench_id_;
};

}  // namespace gespmm::bench
