#include "bench_common/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench_common/bench_common.hpp"

namespace gespmm::bench {

Json BenchRecord::to_json() const {
  Json j = Json::object();
  j.set("bench", Json::string(bench));
  j.set("device", Json::string(device));
  j.set("matrix", Json::string(matrix));
  j.set("algo", Json::string(algo));
  j.set("n", Json::number(n));
  j.set("time_ms", Json::number(time_ms));
  if (speedup > 0.0) j.set("speedup", Json::number(speedup));
  if (wallclock) j.set("wallclock", Json::boolean(true));
  return j;
}

Json BenchRollup::to_json() const {
  Json j = Json::object();
  j.set("bench", Json::string(bench));
  j.set("device", Json::string(device));
  j.set("count", Json::number(count));
  j.set("geomean_time_ms", Json::number(geomean_time_ms));
  if (geomean_speedup > 0.0) j.set("geomean_speedup", Json::number(geomean_speedup));
  if (wallclock) j.set("wallclock", Json::boolean(true));
  return j;
}

std::vector<BenchRollup> BenchReport::rollups() const {
  // Group by (bench, device); keys sort lexicographically so the rollup
  // section of a written baseline is stable across runs.
  std::map<std::pair<std::string, std::string>, std::vector<const BenchRecord*>> groups;
  for (const auto& r : records) groups[{r.bench, r.device}].push_back(&r);

  std::vector<BenchRollup> out;
  out.reserve(groups.size());
  for (const auto& [key, recs] : groups) {
    BenchRollup roll;
    roll.bench = key.first;
    roll.device = key.second;
    roll.count = static_cast<int>(recs.size());
    std::vector<double> times, speedups;
    bool wall = false;
    for (const BenchRecord* r : recs) {
      if (r->time_ms > 0.0) times.push_back(r->time_ms);
      if (r->speedup > 0.0) speedups.push_back(r->speedup);
      wall = wall || r->wallclock;
    }
    roll.geomean_time_ms = geomean(times);
    roll.geomean_speedup = geomean(speedups);
    roll.wallclock = wall;
    out.push_back(std::move(roll));
  }
  return out;
}

Json BenchReport::to_json() const {
  Json j = Json::object();
  j.set("schema_version", Json::number(schema_version));
  Json opts = Json::object();
  opts.set("snap_scale", Json::number(snap_scale));
  opts.set("max_graphs", Json::number(max_graphs));
  opts.set("sample_blocks", Json::number(static_cast<double>(sample_blocks)));
  opts.set("quick", Json::boolean(quick));
  j.set("options", std::move(opts));
  Json recs = Json::array();
  for (const auto& r : records) recs.push_back(r.to_json());
  j.set("records", std::move(recs));
  Json rolls = Json::array();
  for (const auto& r : rollups()) rolls.push_back(r.to_json());
  j.set("rollups", std::move(rolls));
  return j;
}

bool BenchReport::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json().dump(2) << "\n";
  return static_cast<bool>(out);
}

}  // namespace gespmm::bench
