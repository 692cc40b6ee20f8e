/// The three serving workloads. Every input (graphs, feature pools,
/// request sequences, sampled blocks, edge batches) is a pure function of
/// the seed; set-up and the measured window only consume them.

#include <algorithm>
#include <array>
#include <bit>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>

#include "kernels/spmm_host.hpp"
#include "runner.hpp"
#include "serve/delta.hpp"
#include "serve/model_plan.hpp"
#include "serve/shard.hpp"
#include "sparse/datasets.hpp"
#include "sparse/generators.hpp"
#include "sparse/rng.hpp"
#include "sparse/sampling.hpp"

namespace perfbench {

using namespace gespmm;
using sparse::SplitMix64;

namespace {

/// Independent stream seed for (seed, a, b).
std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  return serve::mix64(serve::mix64(serve::mix64(0x5EEDull, seed), a), b);
}

DenseMatrix random_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  DenseMatrix m(rows, cols);
  kernels::fill_random(m, seed);
  return m;
}

std::uint64_t reference_digest(const Csr& a, const DenseMatrix& b,
                               ReduceKind reduce = ReduceKind::Sum) {
  DenseMatrix c(a.rows, b.cols());
  kernels::spmm_host_reference(a, b, c, reduce);
  return hash_matrix(c);
}

/// Deterministic shuffle of `slots` for (seed, client, cycle).
template <typename T>
std::vector<T> shuffled(std::vector<T> slots, std::uint64_t seed) {
  SplitMix64 rng(seed);
  for (std::size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[rng.next_below(i)]);
  }
  return slots;
}

index_t random_node(SplitMix64& rng, index_t n) {
  return static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n)));
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// warm-mix: repeated SpMM over three registered graphs with warm plans.

class WarmMix final : public Workload {
 public:
  explicit WarmMix(std::uint64_t seed) : seed_(seed) {
    graphs_[0].family = kPubmed;
    graphs_[0].csr = sparse::pubmed().adj;
    graphs_[0].widths = {16, 64, 256};
    graphs_[1].family = kRmat;
    graphs_[1].csr = sparse::rmat(17, 16, 0.57, 0.19, 0.19, derive(seed, 1));
    graphs_[1].widths = {16, 64};
    graphs_[2].family = kUniform;
    graphs_[2].csr = sparse::uniform_random(131072, 131072, 4200000, derive(seed, 2));
    graphs_[2].widths = {16, 64};
    // A per-device budget that holds rmat-s17 whole but splits the
    // uniform graph across the two devices.
    capacity_ = serve::csr_bytes(graphs_[2].csr) * 6 / 10;
    if (serve::csr_bytes(graphs_[1].csr) > capacity_) {
      throw std::runtime_error("warm-mix: rmat-s17 does not fit the device budget");
    }
    for (std::size_t g = 0; g < graphs_.size(); ++g) {
      Graph& gr = graphs_[g];
      for (std::size_t w = 0; w < gr.widths.size(); ++w) {
        for (int v = 0; v < kVariants; ++v) {
          gr.pool.push_back(
              random_matrix(gr.csr.cols, gr.widths[w], derive(seed, 10 + g, w * 8 + v)));
        }
      }
    }
  }

  serve::ServeOptions options() const override {
    serve::ServeOptions o;
    o.num_workers = 2;
    o.sharding.device_capacity_bytes = capacity_;
    return o;
  }

  void setup(EngineRun& s) override {
    const index_t max_n = s.engine().options().batch.max_batch_n;
    for (Graph& g : graphs_) {
      g.id = s.register_graph(kClients, g.csr);
      g.shards = s.engine().shard_plan(g.id);
      // Warm every plan a batch of up to two requests (one per client)
      // can ask for. Two back-to-back requests per width land on both
      // devices of the round-robin; a sharded graph pins its devices.
      std::set<index_t> widths;
      for (const index_t a : g.widths) {
        widths.insert(s.replayer().quantized(a));
        for (const index_t b : g.widths) {
          if (a + b <= max_n) widths.insert(s.replayer().quantized(a + b));
        }
      }
      for (const index_t n : widths) {
        for (int rep = 0; rep < (g.shards ? 1 : 2); ++rep) {
          s.spmm(kClients, g.id, nullptr, operand(g), g.family, DenseMatrix(g.csr.cols, n),
                 ReduceKind::Sum, {});
        }
      }
    }
  }

  void step(EngineRun& s, int client, std::uint64_t i) override {
    const Request q = request(client, i);
    Graph& g = graphs_[q.graph];
    const auto t0 = Clock::now();
    DenseMatrix b = g.pool[q.slot];
    const double prep = ms_between(t0, Clock::now());
    RequestRecord& r = s.spmm(client, g.id, nullptr, operand(g), g.family, std::move(b),
                              ReduceKind::Sum, {.key = q.graph * 64 + q.slot});
    r.prep_ms = prep;
  }

  std::uint64_t reference(std::uint64_t check, std::uint64_t) const override {
    const Graph& g = graphs_[check / 64];
    return reference_digest(g.csr, g.pool[check % 64]);
  }

  Json describe() const override {
    Json d = Json::object();
    Json graphs = Json::array();
    for (const Graph& g : graphs_) {
      Json e = Json::object();
      e.set("family", Json::string(kFamilyNames[g.family]));
      e.set("csr", Json::string(hex(hash_csr(g.csr))));
      std::uint64_t h = 0;
      for (const DenseMatrix& b : g.pool) h = serve::mix64(h, hash_matrix(b));
      e.set("features", Json::string(hex(h)));
      graphs.push_back(std::move(e));
    }
    d.set("graphs", std::move(graphs));
    Json reqs = Json::array();
    for (int c = 0; c < kClients; ++c) {
      for (std::uint64_t i = 0; i < 40; ++i) {
        const Request q = request(c, i);
        const Graph& g = graphs_[q.graph];
        reqs.push_back(Json::string(std::string(kFamilyNames[g.family]) + "/n=" +
                                    std::to_string(g.widths[q.slot / kVariants]) +
                                    "/v=" + std::to_string(q.slot % kVariants)));
      }
    }
    d.set("requests", std::move(reqs));
    return d;
  }

 private:
  static constexpr int kVariants = 2;

  struct Graph {
    Family family = kPubmed;
    Csr csr;
    std::vector<index_t> widths;
    /// Feature matrices, kVariants per width (index w * kVariants + v).
    std::vector<DenseMatrix> pool;
    serve::GraphId id;
    std::shared_ptr<const serve::ShardPlan> shards;
  };

  struct Request {
    std::size_t graph = 0;
    std::size_t slot = 0;  // index into Graph::pool
  };

  static EngineRun::Operand operand(const Graph& g) {
    return {&g.csr, g.shards.get(), nullptr, 0};
  }

  /// Each client cycles through 40-request rounds holding exactly the
  /// 60/30/10 graph mix, shuffled per round; the feature variant alternates
  /// by round. Widths split evenly on pubmed and rmat-s17; uniform-131k
  /// runs 3 of its 4 requests at N=64, so its slowest class (7.5 % of
  /// traffic) contains the p95 instead of bordering it.
  Request request(int client, std::uint64_t i) const {
    static const std::vector<std::pair<int, int>> kRound = [] {
      std::vector<std::pair<int, int>> r;  // (graph, width index)
      for (int k = 0; k < 8; ++k) {
        for (int w = 0; w < 3; ++w) r.emplace_back(0, w);
      }
      for (int k = 0; k < 6; ++k) {
        for (int w = 0; w < 2; ++w) r.emplace_back(1, w);
      }
      for (const int w : {0, 1, 1, 1}) r.emplace_back(2, w);
      return r;
    }();
    const std::uint64_t round = i / kRound.size();
    const auto c = static_cast<std::uint64_t>(client);
    const auto order = shuffled(kRound, derive(seed_, 100 + c, round));
    const auto [graph, w] = order[i % kRound.size()];
    const auto variant = static_cast<std::size_t>((round + c) % kVariants);
    return {static_cast<std::size_t>(graph), static_cast<std::size_t>(w) * kVariants + variant};
  }

  std::uint64_t seed_;
  std::array<Graph, 3> graphs_;
  std::size_t capacity_ = 0;
};

// ---------------------------------------------------------------------------
// sampled-cold: every request registers a freshly sampled block.

class SampledCold final : public Workload {
 public:
  explicit SampledCold(std::uint64_t seed)
      : seed_(seed), graph_(sparse::rmat(17, 16, 0.57, 0.19, 0.19, derive(seed, 1))) {
    // A block has at most seeds * (fanout + 1) input nodes.
    const index_t rows = std::min<index_t>(graph_.rows, kSeedNodes * (kFanout + 1));
    for (std::size_t w = 0; w < kWidths.size(); ++w) {
      features_[w] = random_matrix(rows, kWidths[w], derive(seed, 20, w));
    }
  }

  serve::ServeOptions options() const override {
    serve::ServeOptions o;
    o.num_workers = 2;
    return o;
  }

  void setup(EngineRun& s) override {
    // Steady state here is warm threads and allocator, not plans: serve a
    // few blocks from a stream the window never uses.
    for (std::uint64_t i = 0; i < kWarmupBlocks; ++i) serve_block(s, kClients, kClients, i);
  }

  void step(EngineRun& s, int client, std::uint64_t i) override {
    serve_block(s, client, client, i);
  }

  std::uint64_t reference(std::uint64_t check, std::uint64_t) const override {
    const int stream = static_cast<int>(check >> 48);
    const std::uint64_t i = check & ((1ull << 48) - 1);
    const sparse::SampledBlock blk = block(stream, i);
    return reference_digest(blk.adj, features(blk.adj.cols, width(stream, i)));
  }

  Json describe() const override {
    Json d = Json::object();
    d.set("graph", Json::string(hex(hash_csr(graph_))));
    std::uint64_t h = 0;
    for (const DenseMatrix& f : features_) h = serve::mix64(h, hash_matrix(f));
    d.set("features", Json::string(hex(h)));
    Json reqs = Json::array();
    for (int c = 0; c < kClients; ++c) {
      for (std::uint64_t i = 0; i < 6; ++i) {
        const sparse::SampledBlock blk = block(c, i);
        reqs.push_back(Json::string("sampled/n=" + std::to_string(width(c, i)) +
                                    "/nnz=" + std::to_string(blk.adj.nnz()) + "/" +
                                    hex(hash_csr(blk.adj))));
      }
    }
    d.set("requests", std::move(reqs));
    return d;
  }

 private:
  static constexpr std::array<index_t, 2> kWidths = {64, 256};
  static constexpr int kSeedNodes = 4096;
  static constexpr int kFanout = 25;
  static constexpr std::uint64_t kWarmupBlocks = 32;

  static index_t width(int stream, std::uint64_t i) {
    return kWidths[(i + static_cast<std::uint64_t>(stream)) % kWidths.size()];
  }

  /// Block `i` of stream `stream`: a 1-hop GraphSAGE block over fresh
  /// random seed nodes.
  sparse::SampledBlock block(int stream, std::uint64_t i) const {
    SplitMix64 rng(derive(seed_, 200 + static_cast<std::uint64_t>(stream), i));
    std::vector<index_t> seeds(kSeedNodes);
    for (index_t& v : seeds) v = random_node(rng, graph_.rows);
    return sparse::sample_neighbors(graph_, seeds, {kFanout, rng.next()});
  }

  /// The block's input features: the first `rows` rows of the width's
  /// feature table.
  DenseMatrix features(index_t rows, index_t n) const {
    const DenseMatrix& src = features_[n == kWidths[0] ? 0 : 1];
    DenseMatrix b(rows, n);
    std::memcpy(b.device().data(), src.device().data(),
                static_cast<std::size_t>(rows) * static_cast<std::size_t>(n) * sizeof(float));
    return b;
  }

  void serve_block(EngineRun& s, int client, int stream, std::uint64_t i) {
    const auto t0 = Clock::now();
    const sparse::SampledBlock blk = block(stream, i);
    DenseMatrix b = features(blk.adj.cols, width(stream, i));
    const double prep = ms_between(t0, Clock::now());
    const std::uint64_t check = (static_cast<std::uint64_t>(stream) << 48) | i;
    RequestRecord& r = s.spmm(client, {}, &blk.adj, {&blk.adj, nullptr, nullptr, 0}, kSampled,
                              std::move(b), ReduceKind::Sum, {.key = check});
    r.prep_ms = prep;
  }

  std::uint64_t seed_;
  Csr graph_;
  std::array<DenseMatrix, kWidths.size()> features_;
};

// ---------------------------------------------------------------------------
// model-stream: GCN passes and Max SpMMs on pubmed under edge updates.

class ModelStream final : public Workload {
 public:
  ModelStream(std::uint64_t seed, double seconds)
      : graph_(sparse::pubmed().adj),
        spec_(serve::make_model_spec(serve::ServedModelKind::Gcn, 500, 64, 3, 2,
                                     derive(seed, 30))),
        plan_(serve::compile_model(0, graph_, spec_)) {
    for (int v = 0; v < kVariants; ++v) {
      features_[v] = random_matrix(graph_.rows, 500, derive(seed, 31, v));
      dense_[v] = random_matrix(graph_.cols, kDenseN, derive(seed, 32, v));
    }
    make_batches(seed, static_cast<std::size_t>(seconds * 8.0) + 8);
  }

  serve::ServeOptions options() const override {
    serve::ServeOptions o;
    o.num_workers = 2;
    return o;
  }

  void setup(EngineRun& s) override {
    gid_ = s.register_graph(kClients, graph_);
    mid_ = s.engine().register_model(gid_, spec_);
    version_.store(0);
    started_.store(0);
    compacted_.clear();
    {
      std::lock_guard<std::mutex> lock(shadow_mu_);
      shadow_.assign(1, {std::make_shared<const Csr>(graph_), nullptr});
    }
    // Warm both devices: model passes (layer plans at widths 64 and 3)
    // and the Max SpMMs alone and coalesced in pairs.
    for (int rep = 0; rep < 2; ++rep) {
      s.model(kClients, mid_, kPubmed, DenseMatrix(graph_.rows, 500), {});
    }
    for (const index_t n : {kDenseN, 2 * kDenseN}) {
      for (int rep = 0; rep < 2; ++rep) {
        s.spmm(kClients, gid_, nullptr, operand(0), kPubmed, DenseMatrix(graph_.cols, n),
               ReduceKind::Max, {});
      }
    }
  }

  void step(EngineRun& s, int client, std::uint64_t i) override {
    const auto variant =
        static_cast<int>((i / kCycle + static_cast<std::uint64_t>(client)) % kVariants);
    const std::uint64_t v = version_.load();
    const auto t0 = Clock::now();
    if (i % kCycle == 0) {
      DenseMatrix x = features_[variant];
      const double prep = ms_between(t0, Clock::now());
      s.model(client, mid_, kPubmed, std::move(x), {kModelCheck + variant, v, &started_}).prep_ms =
          prep;
    } else {
      DenseMatrix b = dense_[variant];
      const double prep = ms_between(t0, Clock::now());
      s.spmm(client, gid_, nullptr, operand(v), kPubmed, std::move(b), ReduceKind::Max,
             {static_cast<std::uint64_t>(variant), v, &started_})
          .prep_ms = prep;
    }
    // The streaming producer: client 0 folds an edge batch in after every
    // kUpdateEvery-th request.
    if (client == 0 && i % kUpdateEvery == kUpdateEvery - 1 && v < batches_.size()) apply(s, v);
  }

  void prepare_references() override {
    // Every version's effective graph, rebuilt from the batches and the
    // engine's compaction decisions.
    effective_.assign(1, std::make_shared<const Csr>(graph_));
    std::shared_ptr<const Csr> base = effective_[0];
    std::shared_ptr<const serve::DeltaOverlay> overlay;
    for (std::size_t k = 0; k < compacted_.size(); ++k) {
      overlay = serve::DeltaOverlay::apply(*base, overlay.get(), batches_[k]);
      if (compacted_[k]) {
        base = std::make_shared<const Csr>(overlay->materialize(*base));
        overlay = nullptr;
        effective_.push_back(base);
      } else {
        effective_.push_back(std::make_shared<const Csr>(overlay->materialize(*base)));
      }
    }
    // A transform-first first layer's X * W does not depend on the graph.
    for (int v = 0; v < kVariants; ++v) {
      first_transform_[v] = DenseMatrix(graph_.rows, plan_.layers[0].out_width);
      if (plan_.layers[0].transform_first) {
        serve::gemm(features_[v], spec_.weights[0], first_transform_[v]);
      }
    }
  }

  std::uint64_t reference(std::uint64_t check, std::uint64_t version) const override {
    // A version whose update threw was never served; no output matches it.
    if (version >= effective_.size()) return 0;
    const Csr& a = *effective_.at(version);
    if (check < kModelCheck) return reference_digest(a, dense_[check], ReduceKind::Max);
    // The composed pass: each layer's aggregation through the sequential
    // host reference, the dense transform and epilogue of record.
    const auto variant = static_cast<int>(check - kModelCheck);
    DenseMatrix h = features_[variant];
    for (std::size_t l = 0; l < plan_.layers.size(); ++l) {
      const serve::LayerStep& st = plan_.layers[l];
      DenseMatrix out(a.rows, st.out_width);
      if (st.transform_first) {
        DenseMatrix t(h.rows(), st.out_width);
        if (l == 0) {
          t = first_transform_[variant];
        } else {
          serve::gemm(h, spec_.weights[l], t);
        }
        kernels::spmm_host_reference(a, t, out, st.reduce);
        serve::bias_act(out, spec_.bias[l], st.relu);
      } else {
        DenseMatrix t(a.rows, st.in_width);
        kernels::spmm_host_reference(a, h, t, st.reduce);
        serve::dense_transform(t, spec_.weights[l], spec_.bias[l], st.relu, out);
      }
      h = std::move(out);
    }
    return hash_matrix(h);
  }

  Json describe() const override {
    Json d = Json::object();
    d.set("graph", Json::string(hex(hash_csr(graph_))));
    std::uint64_t h = 0;
    for (int v = 0; v < kVariants; ++v) {
      h = serve::mix64(h, hash_matrix(features_[v]));
      h = serve::mix64(h, hash_matrix(dense_[v]));
    }
    for (const DenseMatrix& w : spec_.weights) h = serve::mix64(h, hash_matrix(w));
    d.set("features", Json::string(hex(h)));
    std::uint64_t eb = 0;
    for (const serve::EdgeBatch& b : batches_) {
      for (const auto& e : b.inserts) {
        eb = serve::mix64(eb, edge_key(e.row, e.col));
        eb = serve::mix64(eb, std::bit_cast<std::uint32_t>(e.val));
      }
      for (const auto& e : b.deletes) eb = serve::mix64(eb, ~edge_key(e.row, e.col));
    }
    d.set("edge_batches", Json::string(hex(eb)));
    Json reqs = Json::array();
    for (int c = 0; c < kClients; ++c) {
      for (std::uint64_t i = 0; i < 2 * kUpdateEvery; ++i) {
        const auto variant = (i / kCycle + static_cast<std::uint64_t>(c)) % kVariants;
        std::string q = i % kCycle == 0 ? "gcn" : "max/n=64";
        q += "/v=" + std::to_string(variant);
        if (c == 0 && i % kUpdateEvery == kUpdateEvery - 1) q += "+update";
        reqs.push_back(Json::string(q));
      }
    }
    d.set("requests", std::move(reqs));
    return d;
  }

 private:
  static constexpr int kVariants = 2;
  static constexpr index_t kDenseN = 64;
  static constexpr std::uint64_t kModelCheck = 16;
  /// Each client's requests cycle through one GCN pass then
  /// kCycle - 1 Max SpMMs.
  static constexpr std::uint64_t kCycle = 4;
  /// Client 0 applies an edge batch after every kUpdateEvery-th request;
  /// batches are sized so a 10 s run compacts at least once.
  static constexpr std::uint64_t kUpdateEvery = 8;
  static constexpr int kInsertsPerBatch = 1024;
  static constexpr int kDeletesPerBatch = 256;

  struct Snapshot {
    std::shared_ptr<const Csr> base;
    std::shared_ptr<const serve::DeltaOverlay> overlay;
  };

  static std::uint64_t edge_key(index_t row, index_t col) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(row)) << 32) |
           static_cast<std::uint32_t>(col);
  }

  /// The operand a Max request admitted at `version` executes: base CSR
  /// plus overlay patch. Tracked only when tracing (for the replays).
  EngineRun::Operand operand(std::uint64_t version) {
    std::lock_guard<std::mutex> lock(shadow_mu_);
    if (version >= shadow_.size()) return {&graph_, nullptr, nullptr, 0};
    const Snapshot& sn = shadow_[version];
    return {sn.base.get(), nullptr, sn.overlay ? &sn.overlay->patch() : nullptr,
            serve::mix64(gid_.key, version)};
  }

  void apply(EngineRun& s, std::uint64_t version) {
    const serve::EdgeBatch& batch = batches_[version];
    serve::UpdateReport rep;
    // Raised before the engine can publish the new version, so a request
    // that reads it after its wait covers every version it may have seen.
    started_.store(version + 1);
    UpdateRecord& u = s.update(0, gid_, batch, &rep);
    if (u.threw) return;
    compacted_.push_back(rep.compacted);
    if (s.tracing()) {
      // Replay the overlay fold on a shadow of the graph's state, which
      // also gives later Max requests their base + patch operands.
      std::lock_guard<std::mutex> lock(shadow_mu_);
      const Snapshot prev = shadow_.back();
      const auto t0 = Clock::now();
      auto ov = serve::DeltaOverlay::apply(*prev.base, prev.overlay.get(), batch);
      const auto t1 = Clock::now();
      s.tracer().record("serve.delta_apply", 0, 0, 10, t0, t1);
      u.delta_apply_ms = ms_between(t0, t1);
      if (rep.compacted) {
        shadow_.push_back({std::make_shared<const Csr>(ov->materialize(*prev.base)), nullptr});
      } else {
        shadow_.push_back({prev.base, std::move(ov)});
      }
    }
    version_.store(version + 1);
  }

  /// Edge batches: random upserts plus deletes of earlier-inserted edges
  /// that are still present, so every batch satisfies the delete contract.
  void make_batches(std::uint64_t seed, std::size_t count) {
    SplitMix64 rng(derive(seed, 33));
    std::vector<std::uint64_t> live;
    std::set<std::uint64_t> live_set;
    for (std::size_t k = 0; k < count; ++k) {
      serve::EdgeBatch b;
      std::set<std::uint64_t> deleted;
      for (int d = 0; d < kDeletesPerBatch && live.size() > 2 * kDeletesPerBatch; ++d) {
        const std::size_t at = rng.next_below(live.size());
        const std::uint64_t e = live[at];
        live[at] = live.back();
        live.pop_back();
        live_set.erase(e);
        deleted.insert(e);
        b.deletes.push_back({static_cast<index_t>(e >> 32), static_cast<index_t>(e & 0xFFFFFFFFu)});
      }
      for (int e = 0; e < kInsertsPerBatch; ++e) {
        const index_t row = random_node(rng, graph_.rows);
        const index_t col = random_node(rng, graph_.cols);
        b.inserts.push_back({row, col, rng.next_float(0.25f, 1.0f)});
        const std::uint64_t key = edge_key(row, col);
        if (!deleted.contains(key) && live_set.insert(key).second) live.push_back(key);
      }
      batches_.push_back(std::move(b));
    }
  }

  Csr graph_;
  serve::ModelSpec spec_;
  serve::ModelPlan plan_;
  std::array<DenseMatrix, kVariants> features_;
  std::array<DenseMatrix, kVariants> dense_;
  std::vector<serve::EdgeBatch> batches_;
  serve::GraphId gid_;
  serve::ModelId mid_;
  /// Updates applied so far to this engine (written by client 0 only).
  std::atomic<std::uint64_t> version_{0};
  /// Updates client 0 has begun to apply: the verifier's upper version
  /// bound for a request (written by client 0 only).
  std::atomic<std::uint64_t> started_{0};
  /// Per applied update: whether the engine compacted (client 0 only).
  std::vector<bool> compacted_;
  std::mutex shadow_mu_;
  std::vector<Snapshot> shadow_;  // per version; guarded by shadow_mu_
  std::vector<std::shared_ptr<const Csr>> effective_;
  std::array<DenseMatrix, kVariants> first_transform_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"warm-mix", "sampled-cold", "model-stream"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        double seconds) {
  if (name == "warm-mix") return std::make_unique<WarmMix>(seed);
  if (name == "sampled-cold") return std::make_unique<SampledCold>(seed);
  if (name == "model-stream") return std::make_unique<ModelStream>(seed, seconds);
  throw std::invalid_argument("unknown workload " + name);
}

}  // namespace perfbench
