/// Extension bench: the serving engine's case for batching + plan caching.
///
/// Workload: the three citation graphs (paper Table IV) each receive 48
/// width-16 inference requests, arrival-interleaved across graphs — the
/// repeated-SpMM traffic of GNN model serving. Two policies answer it:
///  - per-request: every request dispatches alone (one kernel launch per
///    request, GE-SpMM's one-shot path),
///  - batched: same-graph requests coalesce into width-256 multi-feature
///    SpMMs through the plan cache (one launch per 16 requests).
/// Reported per device: total modelled device time, modelled throughput,
/// and the batched speedup; then the multi-device round-robin dispatch
/// stats when more than one device is selected. Engines run one worker,
/// paused until fully enqueued, so batch composition — and therefore every
/// recorded number — is deterministic.

#include <algorithm>
#include <cstdio>

#include "bench_common/registry.hpp"
#include "serve/engine.hpp"
#include "sparse/datasets.hpp"

using namespace gespmm;
using bench::Table;

namespace {

constexpr int kRequestsPerGraph = 48;
constexpr sparse::index_t kRequestN = 16;

serve::ServeOptions serve_opts(std::vector<gpusim::DeviceSpec> devices,
                               std::size_t max_batch_requests,
                               std::uint64_t sample_blocks) {
  serve::ServeOptions sopt;
  sopt.devices = std::move(devices);
  sopt.num_workers = 1;
  sopt.start_paused = true;
  sopt.batch.max_batch_requests = max_batch_requests;
  sopt.batch.max_batch_n = 256;
  sopt.plan.sample_blocks = sample_blocks;
  return sopt;
}

/// Register every graph, enqueue the interleaved request mix, drain.
serve::EngineStats run_workload(serve::Engine& eng,
                                const std::vector<sparse::GraphDataset>& graphs) {
  std::vector<serve::GraphId> ids;
  ids.reserve(graphs.size());
  for (const auto& g : graphs) ids.push_back(eng.register_graph(g.adj));
  for (int r = 0; r < kRequestsPerGraph; ++r) {
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      kernels::DenseMatrix b(graphs[gi].adj.cols, kRequestN);
      kernels::fill_random(b, 4200 + 10 * static_cast<std::uint64_t>(gi) +
                                  static_cast<std::uint64_t>(r));
      eng.submit(ids[gi], std::move(b));
    }
  }
  eng.shutdown();
  return eng.stats();
}

double throughput_rps(const serve::EngineStats& st) {
  return st.modelled_ms > 0.0 ? static_cast<double>(st.completed) /
                                    (st.modelled_ms * 1e-3)
                              : 0.0;
}

/// q-th percentile of the virtual-clock completion stamps (fairness-bench
/// idiom: sort, index at q * size).
double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = std::min(xs.size() - 1,
                            static_cast<std::size_t>(q * static_cast<double>(xs.size())));
  return xs[idx];
}

/// Cold-start run: plan cache disabled, so every request is a cold plan
/// build under `mode` — the per-request planning cost the learned
/// selector eliminates. Requests run one per batch at a width wide
/// enough (> 32) that Exact has a real candidate sweep to pay for.
struct ColdRun {
  serve::EngineStats stats;
  serve::PlanCacheStats plans;
  std::vector<double> completed_at_ms;
};

constexpr sparse::index_t kColdN = 64;

ColdRun run_cold_workload(SelectionMode mode, const gpusim::DeviceSpec& dev,
                          std::uint64_t sample_blocks,
                          const std::vector<sparse::GraphDataset>& graphs) {
  serve::ServeOptions sopt = serve_opts({dev}, /*max_batch_requests=*/1, sample_blocks);
  sopt.plan.enabled = false;
  sopt.plan.selection = mode;
  serve::Engine eng(sopt);

  std::vector<serve::GraphId> ids;
  ids.reserve(graphs.size());
  for (const auto& g : graphs) ids.push_back(eng.register_graph(g.adj));
  std::vector<serve::Ticket> tickets;
  for (int r = 0; r < kRequestsPerGraph; ++r) {
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      kernels::DenseMatrix b(graphs[gi].adj.cols, kColdN);
      kernels::fill_random(b, 6200 + 10 * static_cast<std::uint64_t>(gi) +
                                  static_cast<std::uint64_t>(r));
      tickets.push_back(eng.submit(ids[gi], std::move(b)));
    }
  }
  eng.shutdown();
  ColdRun run;
  run.completed_at_ms.reserve(tickets.size());
  for (auto& t : tickets) run.completed_at_ms.push_back(t.wait().completed_at_ms);
  run.stats = eng.stats();
  run.plans = eng.plan_cache().stats();
  return run;
}

}  // namespace

GESPMM_BENCH(serve_throughput) {
  const auto& opt = ctx.opt;
  const auto graphs = sparse::citation_suite();
  const int total_requests = kRequestsPerGraph * static_cast<int>(graphs.size());

  for (const auto& dev : opt.devices) {
    bench::banner("Serving: batched vs per-request (device " + dev.name + ", " +
                  std::to_string(total_requests) + " requests, N=" +
                  std::to_string(kRequestN) + ")");

    serve::Engine solo(serve_opts({dev}, /*max_batch_requests=*/1, opt.sample_blocks));
    const auto ss = run_workload(solo, graphs);

    serve::Engine batched(serve_opts({dev}, /*max_batch_requests=*/16, opt.sample_blocks));
    const auto bs = run_workload(batched, graphs);

    const double speedup = bs.modelled_ms > 0.0 ? ss.modelled_ms / bs.modelled_ms : 0.0;
    Table table({"policy", "batches", "cache_hit/miss", "modelled_ms", "req/s", "speedup"});
    table.add_row({"per-request", std::to_string(ss.batches),
                   std::to_string(ss.plan_cache_hits) + "/" +
                       std::to_string(ss.plan_cache_misses),
                   Table::fmt(ss.modelled_ms, 3), Table::fmt(throughput_rps(ss), 0),
                   "1.00"});
    table.add_row({"batched", std::to_string(bs.batches),
                   std::to_string(bs.plan_cache_hits) + "/" +
                       std::to_string(bs.plan_cache_misses),
                   Table::fmt(bs.modelled_ms, 3), Table::fmt(throughput_rps(bs), 0),
                   Table::fmt(speedup)});
    table.print();

    ctx.record(dev.name, "citation-mix", "per-request", kRequestN, ss.modelled_ms);
    ctx.record(dev.name, "citation-mix", "batched", kRequestN, bs.modelled_ms, speedup);
  }

  // Cold-start planning: with the plan cache disabled every request pays
  // algorithm selection. Predict (trained feature predictor) eliminates
  // the Exact candidate sweep's profiling runs, so the cold-request p95
  // virtual-clock latency drops; steady-state rows above are untouched
  // (their engines use the default Predict mode and hit the cache).
  for (const auto& dev : opt.devices) {
    bench::banner("Serving: cold-start plan selection, Predict vs Exact (device " +
                  dev.name + ", cache disabled, N=" + std::to_string(kColdN) + ")");
    const ColdRun exact = run_cold_workload(SelectionMode::Exact, dev,
                                            opt.sample_blocks, graphs);
    const ColdRun pred = run_cold_workload(SelectionMode::Predict, dev,
                                           opt.sample_blocks, graphs);
    const double p95_exact = percentile(exact.completed_at_ms, 0.95);
    const double p95_pred = percentile(pred.completed_at_ms, 0.95);
    const double p95_win = p95_pred > 0.0 ? p95_exact / p95_pred : 0.0;

    Table table({"selection", "builds", "plan_build_ms", "modelled_ms", "p95_ms", "speedup"});
    table.add_row({"exact-sweep", std::to_string(exact.plans.exact_builds),
                   Table::fmt(exact.stats.plan_build_ms, 3),
                   Table::fmt(exact.stats.modelled_ms, 3),
                   Table::fmt(p95_exact, 3), "1.00"});
    table.add_row({"predict", std::to_string(pred.plans.predicted_builds),
                   Table::fmt(pred.stats.plan_build_ms, 3),
                   Table::fmt(pred.stats.modelled_ms, 3),
                   Table::fmt(p95_pred, 3), Table::fmt(p95_win)});
    table.print();
    std::printf("cold p95 win %.2fx (selection cost eliminated: %.3f ms; "
                "mispredicts: %llu)\n",
                p95_win, exact.stats.plan_build_ms,
                static_cast<unsigned long long>(pred.plans.mispredicts));

    ctx.record(dev.name, "citation-mix", "cold-exact", kColdN, p95_exact);
    ctx.record(dev.name, "citation-mix", "cold-predict", kColdN, p95_pred, p95_win);
  }

  if (opt.devices.size() > 1) {
    bench::banner("Serving: multi-device round-robin dispatch");
    serve::Engine multi(serve_opts(opt.devices, /*max_batch_requests=*/16,
                                   opt.sample_blocks));
    const auto ms = run_workload(multi, graphs);
    Table table({"device", "requests", "batches", "cache_hit/miss", "modelled_ms"});
    for (const auto& d : ms.devices) {
      table.add_row({d.device, std::to_string(d.requests), std::to_string(d.batches),
                     std::to_string(d.plan_cache_hits) + "/" +
                         std::to_string(d.plan_cache_misses),
                     Table::fmt(d.modelled_ms, 3)});
      ctx.record(d.device, "citation-mix", "batched-multidev", kRequestN, d.modelled_ms);
    }
    table.print();
    // Devices run concurrently, so serving wall time is the busiest
    // device's modelled time, not the sum.
    double busiest_ms = 0.0;
    for (const auto& d : ms.devices) busiest_ms = std::max(busiest_ms, d.modelled_ms);
    std::printf("aggregate: %llu requests in %llu batches, busiest device "
                "%.3f modelled ms => %.0f modelled req/s\n",
                static_cast<unsigned long long>(ms.completed),
                static_cast<unsigned long long>(ms.batches), busiest_ms,
                busiest_ms > 0.0
                    ? static_cast<double>(ms.completed) / (busiest_ms * 1e-3)
                    : 0.0);
  }
}
