#include "runner.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <map>
#include <thread>

#include "serve/shard.hpp"

namespace perfbench {

using namespace gespmm;

EngineRun::EngineRun(serve::Engine& eng, Tracer& tracer, bool warmup)
    : eng_(eng),
      tracer_(tracer),
      replay_(tracer, eng.options()),
      warmup_(warmup),
      records_(kClients + 1),
      updates_(kClients + 1),
      registrations_(kClients + 1) {}

RequestRecord& EngineRun::begin(int client, Family family) {
  RequestRecord& r = records_[static_cast<std::size_t>(client)].emplace_back();
  r.id = next_request_.fetch_add(1);
  r.warmup = warmup_;
  r.family = family;
  return r;
}

serve::GraphId EngineRun::register_graph(int client, const Csr& a) {
  const auto t0 = Clock::now();
  const serve::GraphId id = eng_.register_graph(a);
  const auto t1 = Clock::now();
  const std::uint64_t span = tracer_.record("serve.register", 0, 0, client, t0, t1);
  Registration reg;
  reg.wall_ms = ms_between(t0, t1);
  if (tracing()) {
    const Replayer::Ctx ctx{0, span, client + 10};
    LayerTimes unused;
    replay_.registration(ctx, a, unused);
    if (const auto shards = eng_.shard_plan(id)) {
      const auto s0 = Clock::now();
      (void)serve::plan_shards(a, shards->num_shards());
      const auto s1 = Clock::now();
      tracer_.record("serve.shard_plan", span, 0, ctx.lane, s0, s1);
      reg.shard_plan_ms = ms_between(s0, s1);
    }
  }
  registrations_[static_cast<std::size_t>(client)].push_back(reg);
  return id;
}

RequestRecord& EngineRun::spmm(int client, serve::GraphId id, const Csr* block,
                             const Operand& op, Family family, DenseMatrix b,
                             ReduceKind reduce, const Check& check) {
  RequestRecord& r = begin(client, family);
  r.check = check.key;
  r.version_lo = r.version_hi = check.version_lo;
  const index_t n = b.cols();
  const std::uint64_t span = tracer_.new_id();
  std::uint64_t reg_span = 0;
  const auto t0 = Clock::now();
  try {
    if (block != nullptr) {
      id = eng_.register_graph(*block);
      reg_span = tracer_.record("serve.register", span, r.id, client, t0, Clock::now());
    }
    const auto ts0 = Clock::now();
    const serve::Ticket ticket = eng_.submit(id, std::move(b), {.reduce = reduce});
    const auto ts1 = Clock::now();
    const serve::RequestResult& res = ticket.wait();
    const auto t1 = Clock::now();
    tracer_.record("serve.submit", span, r.id, client, ts0, ts1);
    tracer_.record("serve.wait", span, r.id, client, ts1, t1);
    tracer_.record("request", 0, r.id, client, t0, t1, span);
    if (check.version != nullptr) r.version_hi = check.version->load();
    r.e2e_ms = ms_between(t0, t1);
    r.shed = res.status != serve::RequestStatus::Ok;
    if (r.shed) return r;
    r.out_hash = hash_matrix(res.c);
    if (!tracing()) return r;

    // Replays, after the request completed: its registration, the plan it
    // hit or built, the host kernel at the batch's width (per shard on a
    // sharded graph) and any overlay patch, each charged 1/batch_size.
    const Replayer::Ctx ctx{r.id, span, client + 10};
    if (block != nullptr) replay_.registration({r.id, reg_span, ctx.lane}, *block, r.layers);
    const double share = 1.0 / std::max(1, res.batch_size);
    const index_t width = n * std::max(1, res.batch_size);
    const bool cold = !res.plan_cache_hit;
    if (op.shards != nullptr) {
      for (const serve::GraphShard& sh : op.shards->shards) {
        const auto& dev = eng_.options().devices[static_cast<std::size_t>(sh.index)];
        replay_.plan(ctx, sh.csr, sh.key, width, dev, reduce, cold, share, r.layers);
        replay_.host_spmm(ctx, sh.csr, width, reduce, share, false, r.layers);
      }
    } else {
      replay_.plan(ctx, *op.csr, op.plan_key != 0 ? op.plan_key : id.key, width,
                   replay_.device(res.device), reduce, cold, share, r.layers);
      replay_.host_spmm(ctx, *op.csr, width, reduce, share, false, r.layers);
    }
    if (op.patch != nullptr) {
      replay_.host_spmm(ctx, *op.patch, width, reduce, share, true, r.layers);
    }
  } catch (const std::exception& e) {
    r.threw = true;
    std::fprintf(stderr, "request %llu threw: %s\n", static_cast<unsigned long long>(r.id),
                 e.what());
  }
  return r;
}

RequestRecord& EngineRun::model(int client, serve::ModelId id, Family family,
                              DenseMatrix features, const Check& check) {
  RequestRecord& r = begin(client, family);
  r.model = true;
  r.check = check.key;
  r.version_lo = r.version_hi = check.version_lo;
  const std::uint64_t span = tracer_.new_id();
  try {
    // The registry entry the replays walk, taken before submit like the
    // ticket's own capture (an update racing the submit may rebind it).
    const auto m = tracing() ? eng_.model(id) : nullptr;
    const auto t0 = Clock::now();
    const serve::Ticket ticket = eng_.submit_model(id, std::move(features));
    const auto ts1 = Clock::now();
    const serve::RequestResult& res = ticket.wait();
    const auto t1 = Clock::now();
    tracer_.record("serve.submit", span, r.id, client, t0, ts1);
    tracer_.record("serve.wait", span, r.id, client, ts1, t1);
    tracer_.record("request", 0, r.id, client, t0, t1, span);
    if (check.version != nullptr) r.version_hi = check.version->load();
    r.e2e_ms = ms_between(t0, t1);
    r.shed = res.status != serve::RequestStatus::Ok;
    if (r.shed) return r;
    r.composed_ms = res.composed_ms;
    r.out_hash = hash_matrix(res.c);
    if (m == nullptr) return r;

    // Replays per layer: its plan, the aggregation, the dense transform.
    const Replayer::Ctx ctx{r.id, span, client + 10};
    const auto& dev = replay_.device(res.device);
    for (std::size_t l = 0; l < m->plan.layers.size(); ++l) {
      const serve::LayerStep& st = m->plan.layers[l];
      replay_.plan(ctx, *m->graph, m->plan.graph_key, st.spmm_width, dev, st.reduce,
                   !res.plan_cache_hit, 1.0, r.layers);
      replay_.host_spmm(ctx, *m->graph, st.spmm_width, st.reduce, 1.0, false, r.layers);
      replay_.gemm(ctx, m->plan.num_nodes, m->spec.weights[l], r.layers);
    }
  } catch (const std::exception& e) {
    r.threw = true;
    std::fprintf(stderr, "model request %llu threw: %s\n",
                 static_cast<unsigned long long>(r.id), e.what());
  }
  return r;
}

UpdateRecord& EngineRun::update(int client, serve::GraphId id, const serve::EdgeBatch& batch,
                              serve::UpdateReport* report) {
  UpdateRecord& u = updates_[static_cast<std::size_t>(client)].emplace_back();
  u.warmup = warmup_;
  const auto t0 = Clock::now();
  try {
    *report = eng_.apply_update(id, batch);
  } catch (const std::exception& e) {
    u.threw = true;
    std::fprintf(stderr, "apply_update threw: %s\n", e.what());
  }
  const auto t1 = Clock::now();
  u.wall_ms = ms_between(t0, t1);
  tracer_.record("serve.apply_update", 0, 0, client, t0, t1);
  return u;
}

// ---------------------------------------------------------------------------

const std::vector<MetricInfo>& end_to_end_metrics() {
  static const std::vector<MetricInfo> m = {
      {"req_per_s", "req/s"},   {"latency_p50_ms", "ms"},      {"latency_p95_ms", "ms"},
      {"modelled_ms_per_req", "ms"}, {"setup_s", "s"},         {"peak_rss_mb", "MB"},
  };
  return m;
}

const std::vector<MetricInfo>& per_layer_metrics() {
  static const std::vector<MetricInfo> m = {
      {"sparse.validate_ms_p50", "ms"},
      {"serve.fingerprint_ms_p50", "ms"},
      {"serve.register_ms_p50", "ms"},
      {"serve.shard_plan_share", "ratio"},
      {"core.select_us_p50", "us"},
      {"core.autotune_ms_p50", "ms"},
      {"core.autotune_share", "ratio"},
      {"gpusim.simulate_ms_p50", "ms"},
      {"gpusim.simulate_share", "ratio"},
      {"gpusim.dram_mb_per_req", "MB"},
      {"gpusim.gld_efficiency", "ratio"},
      {"gpusim.dram_bound_frac", "ratio"},
      {"kernels.host_spmm_ms_per_req", "ms"},
      {"kernels.host_share", "ratio"},
      {"kernels.host_gflops.pubmed", "GFLOP/s"},
      {"kernels.host_gflops.rmat-s17", "GFLOP/s"},
      {"kernels.host_gflops.uniform-131k", "GFLOP/s"},
      {"kernels.host_gflops.sampled", "GFLOP/s"},
      {"serve.gemm_share", "ratio"},
      {"serve.gemm_gflops", "GFLOP/s"},
      {"serve.overlay_merge_share", "ratio"},
      {"serve.delta_apply_share", "ratio"},
      {"serve.submit_us_p50", "us"},
      {"serve.residual_ms_per_req", "ms"},
      {"serve.residual_share", "ratio"},
      {"serve.plan_hit_ratio", "ratio"},
      {"serve.duplicate_build_ratio", "ratio"},
      {"serve.batch_size_mean", "count"},
      {"serve.gather_share", "ratio"},
      {"serve.fused_saved_share", "ratio"},
      {"serve.compactions", "count"},
      {"serve.plan_invalidations", "count"},
      {"serve.traced_req_per_s", "req/s"},
      {"ledger.replayed_share", "ratio"},
  };
  return m;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Factor that fits a request's replayed layer times into its own e2e
/// wall. A replay re-runs a layer after the request, under whatever the
/// other client and the engine do at that moment, so it can read longer
/// than the request did; the ledger then charges the request's wall to its
/// layers in proportion and leaves it no residual.
double fit(const RequestRecord& r) {
  const double replayed = r.layers.replayed_total();
  return replayed > r.e2e_ms ? r.e2e_ms / replayed : 1.0;
}

/// Verify every Ok window output against its reference digest, computing
/// each distinct (check, version) reference once on a few threads. A
/// request that raced an update may match any version it could have seen.
/// Returns the mismatches.
std::uint64_t verify(const Workload& wl, const std::vector<const RequestRecord*>& ok) {
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  std::map<Key, std::uint64_t> ref;
  for (const RequestRecord* r : ok) {
    for (std::uint64_t v = r->version_lo; v <= r->version_hi; ++v) ref.emplace(Key{r->check, v}, 0);
  }
  std::vector<std::map<Key, std::uint64_t>::iterator> todo;
  for (auto it = ref.begin(); it != ref.end(); ++it) todo.push_back(it);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t k = next.fetch_add(1); k < todo.size(); k = next.fetch_add(1)) {
      todo[k]->second = wl.reference(todo[k]->first.first, todo[k]->first.second);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  std::uint64_t mismatched = 0;
  for (const RequestRecord* r : ok) {
    bool match = false;
    for (std::uint64_t v = r->version_lo; v <= r->version_hi && !match; ++v) {
      match = ref.at(Key{r->check, v}) == r->out_hash;
    }
    if (!match) ++mismatched;
  }
  return mismatched;
}

/// The per-layer ledger: each replayed layer's self time per window
/// request and its share of the summed end-to-end wall; the residual line
/// is what no replay accounts for (queueing, coalesce/split copies, locks).
Json ledger(const std::vector<const RequestRecord*>& ok) {
  const char* names[] = {"sparse.validate",      "serve.fingerprint",   "core.select",
                         "core.autotune (self)", "gpusim.simulate",     "kernels.host_spmm",
                         "serve.overlay_merge",  "serve.gemm",          "serve.residual"};
  double ms[std::size(names)] = {};
  double e2e = 0.0;
  double prep = 0.0;
  for (const RequestRecord* r : ok) {
    const LayerTimes& l = r->layers;
    const double k = fit(*r);
    const double parts[] = {k * l.validate,
                            k * l.fingerprint,
                            k * l.select,
                            k * std::max(0.0, l.autotune - l.select - l.simulate),
                            k * l.simulate,
                            k * l.host_spmm,
                            k * l.overlay_merge,
                            k * l.gemm,
                            r->e2e_ms - k * l.replayed_total()};
    for (std::size_t i = 0; i < std::size(names); ++i) ms[i] += parts[i];
    e2e += r->e2e_ms;
    prep += r->prep_ms;
  }
  const double count = std::max<double>(1.0, static_cast<double>(ok.size()));
  Json out = Json::array();
  const auto row = [&](const char* line, double total) {
    Json e = Json::object();
    e.set("line", Json::string(line));
    e.set("ms_per_req", Json::number(total / count));
    e.set("share", Json::number(ratio(total, e2e)));
    out.push_back(std::move(e));
  };
  for (std::size_t i = 0; i < std::size(names); ++i) row(names[i], ms[i]);
  row("client.prep (outside e2e)", prep);
  return out;
}

/// p50 (ms) of the spans named `name`.
double span_p50(const std::vector<Span>& spans, const char* name) {
  std::vector<double> xs;
  for (const Span& s : spans) {
    if (s.name == name) xs.push_back(s.dur_ms);
  }
  return quantile(std::move(xs), 0.5);
}

}  // namespace

RunResult run(const RunOptions& opt) {
  RunResult out;
  const auto g0 = Clock::now();
  const std::unique_ptr<Workload> wl = make_workload(opt.workload, opt.seed, opt.seconds);
  const double input_s = ms_between(g0, Clock::now()) / 1e3;
  const serve::ServeOptions sopt = wl->options();

  // Set up kSetups times (engine + registration + warm-up, each from
  // nothing; setup_s is their median) and serve the window from the last
  // one. Only the last set-up is traced.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<serve::Engine> eng;
  std::unique_ptr<EngineRun> engine_run;
  for (int k = 0; k < kSetups; ++k) {
    engine_run.reset();
    eng.reset();
    tracer = std::make_unique<Tracer>(opt.trace && k + 1 == kSetups);
    const auto t0 = Clock::now();
    eng = std::make_unique<serve::Engine>(sopt);
    engine_run = std::make_unique<EngineRun>(*eng, *tracer, /*warmup=*/true);
    wl->setup(*engine_run);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  engine_run->set_warmup(false);

  const serve::EngineStats s0 = eng->stats();
  const serve::PlanCacheStats p0 = eng->plan_cache().stats();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(opt.seconds));
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::uint64_t i = 0; Clock::now() < deadline; ++i) wl->step(*engine_run, c, i);
      });
    }
    for (auto& t : clients) t.join();
  }
  const auto end = Clock::now();
  // Before verification, whose references and re-sampled blocks would
  // otherwise raise the engine's own peak.
  const double rss_mb = peak_rss_mb();
  const double window_s = ms_between(start, end) / 1e3;
  const serve::EngineStats s1 = eng->stats();
  const serve::PlanCacheStats p1 = eng->plan_cache().stats();

  // Outcomes of the window's operations.
  std::vector<const RequestRecord*> ok;
  std::uint64_t requests = 0, shed = 0, threw = 0, updates = 0, update_threw = 0;
  std::vector<double> lat, update_ms;
  double update_wall = 0.0, delta_ms = 0.0;
  double e2e_sum = 0.0;
  for (int c = 0; c <= kClients; ++c) {
    for (const RequestRecord& r : engine_run->records(c)) {
      if (r.warmup) continue;
      ++requests;
      if (r.threw) {
        ++threw;
      } else if (r.shed) {
        ++shed;
      } else {
        ok.push_back(&r);
        lat.push_back(r.e2e_ms);
        e2e_sum += r.e2e_ms;
      }
    }
    for (const UpdateRecord& u : engine_run->updates(c)) {
      if (u.warmup) continue;
      ++updates;
      if (u.threw) {
        ++update_threw;
        continue;
      }
      update_ms.push_back(u.wall_ms);
      update_wall += u.wall_ms;
      delta_ms += u.delta_apply_ms;
    }
  }
  const auto v0 = Clock::now();
  wl->prepare_references();
  const std::uint64_t mismatched = verify(*wl, ok);
  const double verify_s = ms_between(v0, Clock::now()) / 1e3;

  out.attempted = requests + updates;
  out.failed = shed + threw + mismatched + update_threw;
  out.correct = mismatched == 0 && threw == 0 && update_threw == 0 && !ok.empty();
  const double completed = static_cast<double>(s1.completed - s0.completed);
  const double req_per_s = static_cast<double>(ok.size()) / window_s;

  Json& d = out.details;
  d.set("window_s", Json::number(window_s));
  d.set("input_gen_s", Json::number(input_s));
  d.set("verify_s", Json::number(verify_s));
  Json setup_runs = Json::array();
  for (const double s : setup_s) setup_runs.push_back(Json::number(s));
  d.set("setup_runs_s", std::move(setup_runs));
  d.set("requests", Json::number(static_cast<double>(requests)));
  d.set("ok", Json::number(static_cast<double>(ok.size())));
  d.set("shed", Json::number(static_cast<double>(shed)));
  d.set("threw", Json::number(static_cast<double>(threw + update_threw)));
  d.set("mismatched", Json::number(static_cast<double>(mismatched)));
  d.set("updates", Json::number(static_cast<double>(updates)));
  d.set("update_p50_ms", Json::number(quantile(update_ms, 0.5)));
  d.set("fail_frac", Json::number(ratio(static_cast<double>(out.failed),
                                        static_cast<double>(out.attempted))));
  d.set("latency_p99_ms", Json::number(quantile(lat, 0.99)));

  Json& m = out.metrics;
  const auto put = [&m](const char* name, const char* unit, double v) {
    Json e = Json::object();
    e.set("value", Json::number(v));
    e.set("unit", Json::string(unit));
    m.set(name, std::move(e));
  };
  if (!opt.trace) {
    put("req_per_s", "req/s", req_per_s);
    put("latency_p50_ms", "ms", quantile(lat, 0.5));
    put("latency_p95_ms", "ms", quantile(lat, 0.95));
    put("modelled_ms_per_req", "ms", ratio(s1.modelled_ms - s0.modelled_ms, completed));
    put("setup_s", "s", quantile(setup_s, 0.5));
    put("peak_rss_mb", "MB", rss_mb);
    return out;
  }

  // Per-layer metrics: shares and per-request lines from the window's
  // replays, fitted into each request's wall; rates from the replays as
  // timed; p50s from the spans (set-up registrations and warm-up plan
  // builds included, so every workload has samples).
  const std::vector<Span> spans = tracer->spans();
  const double n_ok = std::max<double>(1.0, static_cast<double>(ok.size()));
  LayerTimes sum;
  double replayed = 0.0, gld = 0.0, dram_bound = 0.0, composed = 0.0, gemm_ms = 0.0;
  std::uint64_t fitted = 0;
  std::array<double, kNumFamilies> fam_flops{}, fam_ms{};
  for (const RequestRecord* r : ok) {
    const LayerTimes& l = r->layers;
    const double k = fit(*r);
    if (k < 1.0) ++fitted;
    sum.autotune += k * l.autotune;
    sum.simulate += k * l.simulate;
    sum.host_spmm += k * l.host_spmm;
    sum.overlay_merge += k * l.overlay_merge;
    sum.gemm += k * l.gemm;
    sum.gemm_flops += l.gemm_flops;
    sum.dram_bytes += l.dram_bytes;
    gemm_ms += l.gemm;
    fam_flops[r->family] += l.host_flops;
    fam_ms[r->family] += l.host_spmm;
    gld += l.launches > 0 ? l.gld_efficiency_sum / l.launches : 0.0;
    dram_bound += l.dram_bound ? 1.0 : 0.0;
    replayed += k * l.replayed_total();
    composed += r->composed_ms;
  }
  double reg_ms = 0.0, shard_ms = 0.0;
  for (int c = 0; c <= kClients; ++c) {
    for (const auto& reg : engine_run->registrations(c)) {
      reg_ms += reg.wall_ms;
      shard_ms += reg.shard_plan_ms;
    }
  }
  const double hits = static_cast<double>(s1.plan_cache_hits - s0.plan_cache_hits);
  const double misses = static_cast<double>(s1.plan_cache_misses - s0.plan_cache_misses);

  put("sparse.validate_ms_p50", "ms", span_p50(spans, "sparse.validate"));
  put("serve.fingerprint_ms_p50", "ms", span_p50(spans, "serve.fingerprint"));
  put("serve.register_ms_p50", "ms", span_p50(spans, "serve.register"));
  put("serve.shard_plan_share", "ratio", ratio(shard_ms, reg_ms));
  put("core.select_us_p50", "us", 1e3 * span_p50(spans, "core.select"));
  put("core.autotune_ms_p50", "ms", span_p50(spans, "core.autotune"));
  put("core.autotune_share", "ratio", ratio(sum.autotune, e2e_sum));
  put("gpusim.simulate_ms_p50", "ms", span_p50(spans, "gpusim.simulate"));
  put("gpusim.simulate_share", "ratio", ratio(sum.simulate, e2e_sum));
  put("gpusim.dram_mb_per_req", "MB", sum.dram_bytes / n_ok / 1e6);
  put("gpusim.gld_efficiency", "ratio", gld / n_ok);
  put("gpusim.dram_bound_frac", "ratio", dram_bound / n_ok);
  put("kernels.host_spmm_ms_per_req", "ms", sum.host_spmm / n_ok);
  put("kernels.host_share", "ratio", ratio(sum.host_spmm, e2e_sum));
  for (int f = 0; f < kNumFamilies; ++f) {
    const std::string name = std::string("kernels.host_gflops.") + kFamilyNames[f];
    put(name.c_str(), "GFLOP/s", ratio(fam_flops[f], fam_ms[f]) / 1e6);
  }
  put("serve.gemm_share", "ratio", ratio(sum.gemm, e2e_sum));
  put("serve.gemm_gflops", "GFLOP/s", ratio(sum.gemm_flops, gemm_ms) / 1e6);
  put("serve.overlay_merge_share", "ratio", ratio(sum.overlay_merge, e2e_sum));
  put("serve.delta_apply_share", "ratio", ratio(delta_ms, update_wall));
  put("serve.submit_us_p50", "us", 1e3 * span_p50(spans, "serve.submit"));
  put("serve.residual_ms_per_req", "ms", (e2e_sum - replayed) / n_ok);
  put("serve.residual_share", "ratio", ratio(e2e_sum - replayed, e2e_sum));
  put("serve.plan_hit_ratio", "ratio", ratio(hits, hits + misses));
  put("serve.duplicate_build_ratio", "ratio",
      ratio(static_cast<double>(p1.duplicate_builds - p0.duplicate_builds), misses));
  put("serve.batch_size_mean", "count",
      ratio(completed, static_cast<double>(s1.batches - s0.batches)));
  put("serve.gather_share", "ratio",
      ratio(s1.gather_ms - s0.gather_ms, s1.modelled_ms - s0.modelled_ms));
  put("serve.fused_saved_share", "ratio", ratio(s1.fused_saved_ms - s0.fused_saved_ms, composed));
  put("serve.compactions", "count",
      static_cast<double>(s1.graph_compactions - s0.graph_compactions));
  put("serve.plan_invalidations", "count",
      static_cast<double>(s1.plan_invalidations - s0.plan_invalidations));
  put("serve.traced_req_per_s", "req/s", req_per_s);
  put("ledger.replayed_share", "ratio", ratio(replayed, e2e_sum));

  d.set("ledger", ledger(ok));
  d.set("ledger_fitted_requests", Json::number(static_cast<double>(fitted)));
  d.set("spans", Json::number(static_cast<double>(spans.size())));
  if (!opt.trace_path.empty()) {
    tracer->write_chrome_trace(opt.trace_path,
                               run_metadata(opt.workload, opt.seed, opt.seconds, opt.trace));
    d.set("trace_file", Json::string(opt.trace_path));
  }
  return out;
}

}  // namespace perfbench
