/// serve_wall — wall-clock serving benchmark of the gespmm engine.
///
///   serve_wall --workload <warm-mix|sampled-cold|model-stream> --seed <n>
///              --seconds <s> --trace <0|1> [--trace-out <path>]
///   serve_wall --describe --workload <w> --seed <n>   input digests as JSON
///   serve_wall --list-metrics                         metric/workload names
///
/// A run prints its metadata and a report, then as its last line one JSON
/// object {"correct", "attempted", "failed", "metrics"}: end-to-end
/// metrics untraced, per-layer metrics with --trace 1. Exits 1 when any
/// output mismatches its reference or an engine call throws.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "runner.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "serve_wall: %s\nusage: serve_wall --workload W --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] | --describe | "
               "--list-metrics\n",
               why);
  std::exit(2);
}

Json metric_list(const std::vector<MetricInfo>& metrics) {
  Json out = Json::array();
  for (const MetricInfo& m : metrics) {
    Json e = Json::object();
    e.set("name", Json::string(m.name));
    e.set("unit", Json::string(m.unit));
    out.push_back(std::move(e));
  }
  return out;
}

void print_report(const RunOptions& opt, const RunResult& res) {
  std::printf("== %s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  for (const std::string& key : res.metrics.keys()) {
    const Json& m = res.metrics.get(key);
    std::printf("  %-36s %14.6g %s\n", key.c_str(), m.get("value").as_number(),
                m.get("unit").as_string().c_str());
  }
  const Json& d = res.details;
  for (const std::string& key : d.keys()) {
    if (key == "ledger") continue;
    std::printf("  # %-34s %s\n", key.c_str(), d.get(key).dump().c_str());
  }
  if (const Json* ledger = d.find("ledger")) {
    std::printf("  ledger (window requests)              ms/req    share\n");
    for (const Json& row : ledger->items()) {
      std::printf("    %-34s %10.4f %8.4f\n", row.get("line").as_string().c_str(),
                  row.get("ms_per_req").as_number(), row.get("share").as_number());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  bool describe = false;
  bool list = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = value() == "1";
      } else if (a == "--trace-out") {
        opt.trace_path = value();
      } else if (a == "--describe") {
        describe = true;
      } else if (a == "--list-metrics") {
        list = true;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }

  if (list) {
    Json out = Json::object();
    Json names = Json::array();
    for (const std::string& w : workload_names()) names.push_back(Json::string(w));
    out.set("workloads", std::move(names));
    out.set("end_to_end", metric_list(end_to_end_metrics()));
    out.set("per_layer", metric_list(per_layer_metrics()));
    std::printf("%s\n", out.dump().c_str());
    return 0;
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  try {
    if (describe) {
      const auto wl = make_workload(opt.workload, opt.seed, opt.seconds);
      std::printf("%s\n", wl->describe().dump().c_str());
      return 0;
    }
    const Json meta = run_metadata(opt.workload, opt.seed, opt.seconds, opt.trace);
    std::printf("# meta %s\n", meta.dump().c_str());
    const RunResult res = run(opt);
    print_report(opt, res);
    Json last = Json::object();
    last.set("correct", Json::boolean(res.correct));
    last.set("attempted", Json::number(static_cast<double>(res.attempted)));
    last.set("failed", Json::number(static_cast<double>(res.failed)));
    last.set("metrics", res.metrics);
    std::printf("%s\n", last.dump().c_str());
    std::fflush(stdout);
    return res.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_wall: %s\n", e.what());
    return 1;
  }
}
