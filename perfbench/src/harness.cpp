#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/autotune.hpp"
#include "core/gespmm.hpp"
#include "core/plan_select.hpp"
#include "kernels/spmm_host.hpp"
#include "serve/fingerprint.hpp"
#include "serve/model_plan.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace gespmm;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

namespace {

/// Four independent multiply-xor lanes over 8-byte words: fast enough to
/// digest a 32 MB output in a few ms, and any changed word changes its
/// lane (the per-lane step is a bijection).
std::uint64_t hash_words(const void* data, std::size_t bytes, std::uint64_t seed) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  std::uint64_t lane[4] = {seed, seed ^ 0x1111, seed ^ 0x2222, seed ^ 0x3333};
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    for (int l = 0; l < 4; ++l) {
      std::uint64_t w = 0;
      std::memcpy(&w, p + i + 8 * l, 8);
      lane[l] = (lane[l] ^ w) * kMul;
    }
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, p + i, std::min<std::size_t>(bytes - i, 8));
  std::uint64_t h = serve::mix64(bytes, tail);
  for (const std::uint64_t l : lane) h = serve::mix64(h, l);
  // Bytes past the first tail word (at most 24) fold in one by one.
  for (std::size_t j = i + 8; j < bytes; ++j) h = serve::mix64(h, p[j]);
  return h;
}

}  // namespace

std::uint64_t hash_matrix(const DenseMatrix& m) {
  const std::uint64_t shape = serve::mix64(static_cast<std::uint64_t>(m.rows()),
                                           static_cast<std::uint64_t>(m.cols()));
  return hash_words(m.device().data(), m.size() * sizeof(float), shape);
}

std::uint64_t hash_csr(const Csr& a) {
  std::uint64_t h = serve::mix64(static_cast<std::uint64_t>(a.rows),
                                 static_cast<std::uint64_t>(a.cols));
  h = hash_words(a.rowptr.data(), a.rowptr.size() * sizeof(index_t), h);
  h = hash_words(a.colind.data(), a.colind.size() * sizeof(index_t), h);
  return hash_words(a.val.data(), a.val.size() * sizeof(float), h);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

std::uint64_t Tracer::record(const char* name, std::uint64_t parent,
                             std::uint64_t request, int lane,
                             Clock::time_point t0, Clock::time_point t1,
                             std::uint64_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = new_id();
  Span s{id, parent, request, name, ms_between(origin_, t0), ms_between(t0, t1), lane};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_chrome_trace(const std::string& path, const Json& metadata) const {
  Json events = Json::array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      Json e = Json::object();
      e.set("name", Json::string(s.name));
      e.set("cat", Json::string(s.name.substr(0, s.name.find('.'))));
      e.set("ph", Json::string("X"));
      e.set("ts", Json::number(s.start_ms * 1e3));
      e.set("dur", Json::number(s.dur_ms * 1e3));
      e.set("pid", Json::number(1));
      e.set("tid", Json::number(s.lane));
      Json args = Json::object();
      args.set("span", Json::number(static_cast<double>(s.id)));
      args.set("parent", Json::number(static_cast<double>(s.parent)));
      args.set("request", Json::number(static_cast<double>(s.request)));
      e.set("args", std::move(args));
      events.push_back(std::move(e));
    }
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", Json::string("ms"));
  doc.set("otherData", metadata);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << doc.dump() << '\n';
}

double LayerTimes::replayed_total() const {
  // autotune_spmm contains a feature pass and a pricing run of its own;
  // select and simulate replay those separately, so the autotune line
  // contributes only what it spends beyond them.
  const double autotune_self = std::max(0.0, autotune - select - simulate);
  return validate + fingerprint + select + autotune_self + simulate + host_spmm +
         overlay_merge + gemm;
}

template <typename F>
double Replayer::timed(const Ctx& ctx, const char* name, std::uint64_t parent, F&& f) {
  const auto t0 = Clock::now();
  f();
  const auto t1 = Clock::now();
  tracer_.record(name, parent, ctx.request, ctx.lane, t0, t1);
  return ms_between(t0, t1);
}

namespace {

/// Per-thread zero-filled operands for replays, keyed by shape.
/// References stay valid until the next trim_replay_buffers().
std::map<std::tuple<index_t, index_t, int>, DenseMatrix>& replay_buffer_pool() {
  thread_local std::map<std::tuple<index_t, index_t, int>, DenseMatrix> pool;
  return pool;
}

DenseMatrix& replay_buffer(index_t rows, index_t cols, int slot) {
  auto& pool = replay_buffer_pool();
  const auto key = std::make_tuple(rows, cols, slot);
  auto it = pool.find(key);
  if (it == pool.end()) it = pool.emplace(key, DenseMatrix(rows, cols)).first;
  return it->second;
}

/// Bound the pool (sampled blocks bring a new shape per request); call
/// before taking the operands of one replay.
void trim_replay_buffers() {
  if (replay_buffer_pool().size() >= 12) replay_buffer_pool().clear();
}

}  // namespace

void Replayer::registration(const Ctx& ctx, const Csr& a, LayerTimes& out) {
  out.validate += timed(ctx, "sparse.validate", ctx.parent, [&] { a.validate(); });
  out.fingerprint +=
      timed(ctx, "serve.fingerprint", ctx.parent, [&] { (void)serve::fingerprint(a); });
}

index_t Replayer::quantized(index_t n) const {
  const index_t q = opt_.plan.width_quantum;
  return q > 1 ? (n + q - 1) / q * q : n;
}

const gpusim::DeviceSpec& Replayer::device(const std::string& name) const {
  for (const auto& d : opt_.devices) {
    if (d.name == name) return d;
  }
  throw std::invalid_argument("unknown device " + name);
}

void Replayer::plan(const Ctx& ctx, const Csr& a, std::uint64_t graph_key, index_t n,
                    const gpusim::DeviceSpec& dev, ReduceKind reduce, bool cold,
                    double share, LayerTimes& out) {
  const index_t nq = quantized(n);
  const PlanKey key{graph_key, dev.name, nq, static_cast<int>(reduce)};
  PlanMetrics pm;
  bool known = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = metrics_.find(key); it != metrics_.end()) {
      pm = it->second;
      known = true;
    }
  }
  if (cold || !known) {
    // The engine's PlanCache build: the learned selector's feature pass
    // and tree walk, the tuner (Sum only), and one simulator pricing run
    // of the chosen kernel at the cache's block-sampling budget.
    SpmmAlgo algo = SpmmAlgo::GeSpMM;
    const auto select = [&] { algo = predict_spmm_algo(extract_plan_features(a, nq), dev); };
    ProfileOptions po;
    po.device = dev;
    po.sample = gpusim::SamplePolicy::sampled(opt_.plan.sample_blocks);
    po.reduce = reduce;
    SpmmProfile prof;
    const auto simulate = [&] { prof = profile_spmm_shape(a, nq, po); };
    if (cold) {
      const std::uint64_t build = tracer_.new_id();
      const auto t0 = Clock::now();
      out.select += share * timed(ctx, "core.select", build, select);
      if (reduce == ReduceKind::Sum) {
        AutotuneOptions ao;
        ao.device = dev;
        ao.sample_blocks = opt_.plan.sample_blocks;
        ao.mode = opt_.plan.selection;
        ao.retune_regret = opt_.plan.retune_regret;
        out.autotune += share * timed(ctx, "core.autotune", build, [&] {
          algo = autotune_spmm(a, nq, ao).best;
        });
      } else {
        algo = select_spmm_algo(a, nq, dev);
      }
      po.algo = algo;
      out.simulate += share * timed(ctx, "gpusim.simulate", build, simulate);
      tracer_.record("plan.build", ctx.parent, ctx.request, ctx.lane, t0, Clock::now(), build);
    } else {
      algo = select_spmm_algo(a, nq, dev);
      po.algo = algo;
      simulate();
    }
    const gpusim::LaunchResult& r = prof.result;
    pm.dram_bytes = static_cast<double>(r.metrics.dram_bytes());
    pm.gld_efficiency = r.metrics.gld_efficiency();
    pm.dram_bound = std::strcmp(r.time.bottleneck, "dram") == 0;
    std::lock_guard<std::mutex> lock(mu_);
    metrics_.emplace(key, pm);
  }
  out.dram_bytes += share * pm.dram_bytes;
  out.gld_efficiency_sum += pm.gld_efficiency;
  ++out.launches;
  out.dram_bound = out.dram_bound || pm.dram_bound;
}

void Replayer::host_spmm(const Ctx& ctx, const Csr& a, index_t n, ReduceKind reduce,
                         double share, bool overlay, LayerTimes& out) {
  trim_replay_buffers();
  const DenseMatrix& b = replay_buffer(a.cols, n, 0);
  DenseMatrix& c = replay_buffer(a.rows, n, 1);
  const double ms =
      timed(ctx, overlay ? "serve.overlay_merge" : "kernels.host_spmm", ctx.parent,
            [&] { kernels::spmm_host_parallel(a, b, c, reduce); });
  if (overlay) {
    out.overlay_merge += share * ms;
  } else {
    out.host_spmm += share * ms;
    out.host_flops += share * 2.0 * a.nnz() * static_cast<double>(n);
  }
}

void Replayer::gemm(const Ctx& ctx, index_t m, const DenseMatrix& w, LayerTimes& out) {
  trim_replay_buffers();
  const DenseMatrix& h = replay_buffer(m, w.rows(), 2);
  DenseMatrix& o = replay_buffer(m, w.cols(), 3);
  out.gemm += timed(ctx, "serve.gemm", ctx.parent, [&] { serve::gemm(h, w, o); });
  out.gemm_flops += 2.0 * m * static_cast<double>(w.rows()) * w.cols();
}

Json run_metadata(const std::string& workload, std::uint64_t seed, double seconds,
                  bool trace) {
  const auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return std::string(v != nullptr && *v != '\0' ? v : "none");
  };
  int omp_threads = 1;
#ifdef _OPENMP
  omp_threads = omp_get_max_threads();
#endif
  Json m = Json::object();
  m.set("workload", Json::string(workload));
  m.set("seed", Json::number(static_cast<double>(seed)));
  m.set("seconds", Json::number(seconds));
  m.set("trace", Json::boolean(trace));
  m.set("nproc", Json::number(std::thread::hardware_concurrency()));
  m.set("omp_threads", Json::number(omp_threads));
  m.set("compiler", Json::string(PERFBENCH_COMPILER));
  m.set("build_type", Json::string(PERFBENCH_BUILD_TYPE));
  m.set("git_sha", Json::string(env("PERFBENCH_GIT_SHA")));
  m.set("source_hash", Json::string(env("PERFBENCH_SOURCE_HASH")));
  m.set("library_version", Json::string(gespmm::version()));
  return m;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB on Linux
}

}  // namespace perfbench
