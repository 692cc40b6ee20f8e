#pragma once
/// \file harness.hpp
/// Shared pieces of the wall-clock serving benchmark: clocks, output
/// digests, quantiles, the span tracer with its Chrome trace export, the
/// record every served request leaves, and the layer replays the traced
/// run uses to split a request's wall time across the library's modules.
///
/// Spans are recorded only here, around calls the benchmark itself makes
/// into the library's public API; nothing inside the library is
/// instrumented.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common/json.hpp"
#include "serve/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using gespmm::bench::Json;
using gespmm::kernels::DenseMatrix;
using gespmm::kernels::ReduceKind;
using gespmm::sparse::Csr;
using gespmm::sparse::index_t;

double ms_between(Clock::time_point a, Clock::time_point b);

/// 64-bit digest of a matrix's shape and bytes. Two outputs are treated as
/// bitwise equal when their digests match.
std::uint64_t hash_matrix(const DenseMatrix& m);

/// Order-sensitive 64-bit digest of a CSR's shape and arrays.
std::uint64_t hash_csr(const Csr& a);

/// Linearly interpolated quantile `q` in [0, 1] of `xs`; 0 when empty.
double quantile(std::vector<double> xs, double q);

/// Graph families requests are served on (the per-family GFLOP/s lines).
enum Family { kPubmed = 0, kRmat = 1, kUniform = 2, kSampled = 3, kNumFamilies = 4 };
inline constexpr std::array<const char*, kNumFamilies> kFamilyNames = {
    "pubmed", "rmat-s17", "uniform-131k", "sampled"};

/// One finished span; times in ms since the tracer's origin.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // request the span belongs to (0 = none)
  std::string name;
  double start_ms = 0.0;
  double dur_ms = 0.0;
  int lane = 0;  // Chrome trace thread id
};

/// Thread-safe in-memory span store, written out once the run ends. A
/// disabled tracer records nothing and hands out id 0.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// A fresh span id, so children can name a parent recorded later.
  std::uint64_t new_id() { return enabled_ ? next_id_.fetch_add(1) : 0; }
  /// Record [t0, t1) under `id` (a fresh id when 0); returns the id.
  std::uint64_t record(const char* name, std::uint64_t parent,
                       std::uint64_t request, int lane, Clock::time_point t0,
                       Clock::time_point t1, std::uint64_t id = 0);
  /// Chrome trace-event JSON ("X" events; span, parent and request ids in
  /// each event's args) with `metadata` under "otherData".
  void write_chrome_trace(const std::string& path, const Json& metadata) const;
  /// Copy of every span recorded so far.
  std::vector<Span> spans() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Wall time of the layer calls replayed for one request (ms), already
/// divided among the requests of its batch. Zero for calls that did not
/// run on the request's path.
struct LayerTimes {
  double validate = 0.0;
  double fingerprint = 0.0;
  double select = 0.0;
  /// autotune_spmm, inclusive of its feature pass and pricing run.
  double autotune = 0.0;
  double simulate = 0.0;
  double host_spmm = 0.0;
  double overlay_merge = 0.0;
  double gemm = 0.0;
  double host_flops = 0.0;
  double gemm_flops = 0.0;
  /// Modelled-kernel metrics of the request's plan launches (shards,
  /// model layers): DRAM bytes charged to the request, the launches'
  /// summed gld_efficiency, and whether any launch was DRAM-bound.
  double dram_bytes = 0.0;
  double gld_efficiency_sum = 0.0;
  int launches = 0;
  bool dram_bound = false;

  /// Replayed layer time without double counting autotune's children.
  double replayed_total() const;
};

/// What one served request (or warm-up request) left behind.
struct RequestRecord {
  std::uint64_t id = 0;
  bool warmup = false;
  Family family = kPubmed;
  bool model = false;
  bool shed = false;
  bool threw = false;
  /// Wall ms from the first engine call of the request (register for a
  /// sampled block, else submit) to Ticket::wait returning.
  double e2e_ms = 0.0;
  /// Client time preparing the request's inputs (sampling a block,
  /// copying features) before its first engine call; outside e2e_ms.
  double prep_ms = 0.0;
  /// What a model pass would have cost composed layer by layer (modelled).
  double composed_ms = 0.0;
  std::uint64_t out_hash = 0;
  /// Workload-specific key of the expected output, and the graph versions
  /// the request may have executed against (an update can race submit).
  std::uint64_t check = 0;
  std::uint64_t version_lo = 0;
  std::uint64_t version_hi = 0;
  LayerTimes layers;
};

/// One apply_update call of the streaming workload.
struct UpdateRecord {
  bool warmup = false;
  bool threw = false;
  double wall_ms = 0.0;
  /// Replayed DeltaOverlay::apply of the same batch (traced runs).
  double delta_apply_ms = 0.0;
};

/// Replays a completed request's layer calls through the library's public
/// functions, on the request's own operand, width and device, each timed
/// as a child span of the request. Thread-safe; each client thread replays
/// its own requests.
class Replayer {
 public:
  Replayer(Tracer& tracer, const gespmm::serve::ServeOptions& opt)
      : tracer_(tracer), opt_(opt) {}

  struct Ctx {
    std::uint64_t request = 0;
    std::uint64_t parent = 0;
    int lane = 0;
  };

  /// sparse.validate + serve.fingerprint: what register_graph does first.
  void registration(const Ctx& ctx, const Csr& a, LayerTimes& out);

  /// The plan for one kernel launch: request-weighted gpusim metrics
  /// always; on a cold plan also the build itself — core.select,
  /// core.autotune (Sum only, like PlanCache) and gpusim.simulate of the
  /// chosen kernel at the plan's sample budget. `share` is the request's
  /// part of the batch.
  void plan(const Ctx& ctx, const Csr& a, std::uint64_t graph_key, index_t n,
            const gespmm::gpusim::DeviceSpec& dev, ReduceKind reduce,
            bool cold, double share, LayerTimes& out);

  /// kernels.host_spmm (or serve.overlay_merge on an overlay patch) at
  /// width `n`, charged `share` of its time.
  void host_spmm(const Ctx& ctx, const Csr& a, index_t n, ReduceKind reduce,
                 double share, bool overlay, LayerTimes& out);

  /// serve.gemm of an m x w.rows() operand with `w`.
  void gemm(const Ctx& ctx, index_t m, const DenseMatrix& w, LayerTimes& out);

  const gespmm::gpusim::DeviceSpec& device(const std::string& name) const;
  index_t quantized(index_t n) const;

 private:
  using PlanKey = std::tuple<std::uint64_t, std::string, index_t, int>;
  struct PlanMetrics {
    double dram_bytes = 0.0;
    double gld_efficiency = 0.0;
    bool dram_bound = false;
  };

  /// Timed call `f` recorded as span `name`; returns its wall ms.
  template <typename F>
  double timed(const Ctx& ctx, const char* name, std::uint64_t parent, F&& f);

  Tracer& tracer_;
  const gespmm::serve::ServeOptions& opt_;
  std::mutex mu_;
  std::map<PlanKey, PlanMetrics> metrics_;  // guarded by mu_
};

/// Host, toolchain and input facts that make wall-clock rows readable
/// across machines.
Json run_metadata(const std::string& workload, std::uint64_t seed,
                  double seconds, bool trace);

/// Process peak resident set size in MB.
double peak_rss_mb();

}  // namespace perfbench
