#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "kernels/spmm_host.hpp"

namespace gespmm::serve {

namespace detail {

void RequestState::fulfill(RequestResult r) {
  {
    std::lock_guard<std::mutex> lock(mu);
    result = std::move(r);
    done = true;
  }
  cv.notify_all();
}

const RequestResult& RequestState::wait() {
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return result;
}

}  // namespace detail

bool Ticket::ready() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

ServeOptions::ServeOptions()
    : devices{gpusim::gtx1080ti(), gpusim::rtx2080()},
      tenants{{"default", TenantConfig{}}} {}

namespace {

/// Validate the tenant roster and derive the scheduler's share vector
/// (sorted-name order == tenant index order).
std::vector<double> tenant_shares(const std::map<std::string, TenantConfig>& tenants) {
  if (tenants.empty()) {
    throw std::invalid_argument("Engine: at least one tenant required");
  }
  std::vector<double> shares;
  shares.reserve(tenants.size());
  for (const auto& [name, cfg] : tenants) {
    if (!(cfg.share > 0.0) || !std::isfinite(cfg.share)) {
      throw std::invalid_argument("Engine: tenant \"" + name +
                                  "\" share must be positive and finite");
    }
    shares.push_back(cfg.share);
  }
  return shares;
}

}  // namespace

Engine::Engine(ServeOptions opt)
    : opt_(std::move(opt)),
      plan_cache_(opt_.plan),
      scheduler_(opt_.scheduler, opt_.batch, tenant_shares(opt_.tenants)),
      admission_(opt_.admission) {
  if (opt_.devices.empty()) {
    throw std::invalid_argument("Engine: at least one device required");
  }
  if (opt_.num_workers < 1) {
    throw std::invalid_argument("Engine: at least one worker required");
  }
  tenant_names_.reserve(opt_.tenants.size());
  tenant_cfgs_.reserve(opt_.tenants.size());
  stats_.tenants.reserve(opt_.tenants.size());
  for (const auto& [name, cfg] : opt_.tenants) {
    tenant_names_.push_back(name);
    tenant_cfgs_.push_back(cfg);
    TenantServeStats ts;
    ts.tenant = name;
    ts.share = cfg.share;
    stats_.tenants.push_back(std::move(ts));
  }
  stats_.devices.reserve(opt_.devices.size());
  for (const auto& dev : opt_.devices) {
    DeviceServeStats ds;
    ds.device = dev.name;
    stats_.devices.push_back(std::move(ds));
  }
  if (!opt_.start_paused) start();
}

Engine::~Engine() { shutdown(); }

std::uint32_t Engine::tenant_index(const std::string& name) const {
  const auto it = std::lower_bound(tenant_names_.begin(), tenant_names_.end(), name);
  if (it == tenant_names_.end() || *it != name) {
    throw std::invalid_argument("Engine: unknown tenant \"" + name +
                                "\" (not in ServeOptions::tenants)");
  }
  return static_cast<std::uint32_t>(it - tenant_names_.begin());
}

std::size_t Engine::device_capacity() const {
  if (opt_.sharding.device_capacity_bytes != 0) {
    return opt_.sharding.device_capacity_bytes;
  }
  std::size_t capacity = opt_.devices.front().dram_bytes;
  for (const auto& dev : opt_.devices) capacity = std::min(capacity, dev.dram_bytes);
  return capacity;
}

std::uint64_t Engine::registry_slot(GraphFingerprint& fp) const {
  // Registrations of one content probe upwards from its classic key. A
  // graph an update has moved on (version > 0) no longer matches, so its
  // original content probes past it into a new lineage.
  fp.lineage = 0;
  const std::uint64_t key = fp.key();
  for (;; ++fp.lineage) {
    const auto it = graphs_.find(key + fp.lineage);
    if (it == graphs_.end() || it->second.fp == fp) return key + fp.lineage;
  }
}

GraphId Engine::register_graph(const Csr& a) {
  a.validate();
  GraphFingerprint fp = fingerprint(a);
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t handle = registry_slot(fp);
    if (graphs_.contains(handle)) {
      ++stats_.register_dedup_hits;
      return GraphId{handle};
    }
  }

  // Shard planning happens outside the lock: it is an O(nnz) pass per
  // shard and only runs once per distinct oversized operand.
  const std::size_t capacity = device_capacity();
  std::shared_ptr<ShardPlan> shards;
  const std::size_t bytes = csr_bytes(a);
  if (bytes > capacity) {
    if (opt_.devices.size() < 2) {
      throw std::runtime_error(
          "Engine::register_graph: operand (" + std::to_string(bytes) +
          " bytes) exceeds the device capacity (" + std::to_string(capacity) +
          " bytes) and there is no device group to shard across");
    }
    auto plan = std::make_shared<ShardPlan>(
        plan_shards(a, static_cast<int>(opt_.devices.size())));
    if (plan->max_shard_bytes() > capacity) {
      throw std::runtime_error(
          "Engine::register_graph: operand does not fit even sharded " +
          std::to_string(opt_.devices.size()) + " ways (largest shard " +
          std::to_string(plan->max_shard_bytes()) + " bytes, capacity " +
          std::to_string(capacity) + " bytes)");
    }
    shards = std::move(plan);
  }

  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t handle = registry_slot(fp);
  if (graphs_.contains(handle)) {
    ++stats_.register_dedup_hits;
  } else {
    graphs_.emplace(handle, RegisteredGraph{std::make_shared<const Csr>(a),
                                            shards, nullptr, fp, fp.key()});
    ++stats_.graphs_registered;
    if (shards) ++stats_.graphs_sharded;
  }
  return GraphId{handle};
}

std::shared_ptr<const Csr> Engine::effective_graph(const RegisteredGraph& g) {
  if (g.overlay == nullptr) return g.csr;
  return std::make_shared<const Csr>(g.overlay->materialize(*g.csr));
}

std::shared_ptr<const Csr> Engine::graph(GraphId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(id.key);
  if (it == graphs_.end()) {
    throw std::invalid_argument("Engine::graph: unknown graph handle");
  }
  return effective_graph(it->second);
}

GraphFingerprint Engine::graph_fingerprint(GraphId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(id.key);
  if (it == graphs_.end()) {
    throw std::invalid_argument(
        "Engine::graph_fingerprint: unknown graph handle");
  }
  return it->second.fp;
}

std::shared_ptr<const ShardPlan> Engine::shard_plan(GraphId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graphs_.find(id.key);
  if (it == graphs_.end()) {
    throw std::invalid_argument("Engine::shard_plan: unknown graph handle");
  }
  return it->second.shards;
}

ModelId Engine::register_model(GraphId graph, ModelSpec spec) {
  std::shared_ptr<const Csr> g;
  std::uint64_t graph_key = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = graphs_.find(graph.key);
    if (it == graphs_.end()) {
      throw std::invalid_argument("Engine::register_model: unknown graph handle");
    }
    if (it->second.shards != nullptr) {
      throw std::invalid_argument(
          "Engine::register_model: graph is sharded across devices; model "
          "serving needs the whole operand resident on one device");
    }
    // Models bind to the graph's *current* state: the effective CSR and
    // the version-bearing key, so an update (which rebinds by matching
    // this key) can find and recompile them.
    g = effective_graph(it->second);
    graph_key = it->second.current_key;
  }
  // Compile (and content-hash the parameters) outside the lock. The
  // snapshot shared_ptr keeps the operand alive and consistent even if an
  // apply_update replaces the registry's CSR meanwhile; the dedup check
  // below then simply re-runs against whatever is registered.
  ModelPlan plan = compile_model(graph_key, *g, spec);
  const std::uint64_t key = plan.key;
  auto model = std::make_shared<const RegisteredModel>(
      RegisteredModel{std::move(plan), std::move(spec), std::move(g)});
  std::lock_guard<std::mutex> lock(mu_);
  // Content dedup scans values rather than map keys: after an update
  // rebinds a model, its registry key (the stable ModelId) no longer
  // equals its recompiled plan.key. A handle still held by such a model
  // is probed past, never handed out for a different one.
  for (const auto& [mid, m] : models_) {
    if (m->plan.key == key) {
      ++stats_.model_register_dedup_hits;
      return ModelId{mid};
    }
  }
  std::uint64_t handle = key;
  while (models_.contains(handle)) ++handle;
  models_.emplace(handle, std::move(model));
  ++stats_.models_registered;
  return ModelId{handle};
}

std::shared_ptr<const RegisteredModel> Engine::model(ModelId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(id.key);
  if (it == models_.end()) {
    throw std::invalid_argument("Engine::model: unknown model handle");
  }
  return it->second;
}

namespace {

std::shared_ptr<detail::RequestState> new_request(const SubmitOptions& options,
                                                  std::uint32_t tenant) {
  auto state = std::make_shared<detail::RequestState>();
  state->reduce = options.reduce;
  state->priority = options.priority;
  state->tenant = tenant;
  state->tenant_name = options.tenant;
  state->deadline_ms = options.deadline_ms;
  return state;
}

}  // namespace

Ticket Engine::submit(GraphId id, DenseMatrix b, const SubmitOptions& options) {
  auto state = new_request(options, tenant_index(options.tenant));
  ShedReason shed = ShedReason::None;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      throw std::runtime_error("Engine::submit: engine is shut down");
    }
    auto it = graphs_.find(id.key);
    if (it == graphs_.end()) {
      throw std::invalid_argument("Engine::submit: unknown graph handle");
    }
    // Snapshot the graph's current state and identity: the version-
    // bearing key means requests straddling an apply_update land in
    // different scheduler queues (never one batch), and the captured
    // base/overlay/shards stay valid however the registry moves on. A
    // sharded graph's slices already hold the updated rows, so it needs
    // no overlay.
    state->graph_key = it->second.current_key;
    state->graph = it->second.csr;
    state->shards = it->second.shards;
    if (state->shards == nullptr) state->overlay = it->second.overlay;
    if (b.rows() != state->graph->cols) {
      throw std::invalid_argument("Engine::submit: B must have A.cols rows");
    }
    if (b.cols() <= 0) {
      throw std::invalid_argument("Engine::submit: B must have at least one column");
    }
    if (b.layout() != kernels::Layout::RowMajor) {
      throw std::invalid_argument("Engine::submit: B must be row-major");
    }
    state->b = std::move(b);
    state->sched_width = state->b.cols();
    shed = admit(state);
  }
  return finish_submit(std::move(state), shed);
}

Ticket Engine::submit_model(ModelId id, DenseMatrix features,
                            const SubmitOptions& options) {
  auto state = new_request(options, tenant_index(options.tenant));
  ShedReason shed = ShedReason::None;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      throw std::runtime_error("Engine::submit_model: engine is shut down");
    }
    auto it = models_.find(id.key);
    if (it == models_.end()) {
      throw std::invalid_argument("Engine::submit_model: unknown model handle");
    }
    const std::shared_ptr<const RegisteredModel>& m = it->second;
    if (features.rows() != m->plan.num_nodes) {
      throw std::invalid_argument(
          "Engine::submit_model: features must have one row per graph node");
    }
    if (features.cols() != m->plan.in_feats) {
      throw std::invalid_argument(
          "Engine::submit_model: feature width must match the model's input "
          "width");
    }
    if (features.layout() != kernels::Layout::RowMajor) {
      throw std::invalid_argument(
          "Engine::submit_model: features must be row-major");
    }
    state->model = m;
    state->graph = m->graph;
    state->graph_key = m->plan.graph_key;
    state->reduce = m->spec.reduce;
    state->b = std::move(features);
    // One ticket covers the whole forward pass; the model's summed
    // per-layer SpMM width is what the pass costs the queue's DRR
    // budget, so model and plain traffic compete on equal (width) terms.
    state->sched_width = m->plan.total_spmm_width;
    shed = admit(state);
  }
  return finish_submit(std::move(state), shed);
}

ShedReason Engine::admit(const std::shared_ptr<detail::RequestState>& state) {
  const AdmissionDecision d =
      admission_.admit(state->priority, scheduler_.pending(), tenant_cfgs_[state->tenant],
                       state->deadline_ms, virtual_now_ms_);
  if (!d.admitted) {
    ++stats_.shed;
    ++stats_.tenants[state->tenant].shed;
    return d.reason;
  }
  const bool model = state->model != nullptr;
  state->seq = next_seq_++;
  scheduler_.enqueue({state->seq, state->graph_key, state->sched_width, state->reduce,
                      state->priority, model, state->tenant});
  pending_states_.emplace(state->seq, state);
  ++stats_.submitted;
  ++stats_.tenants[state->tenant].submitted;
  if (model) ++stats_.model_requests;
  return ShedReason::None;
}

Ticket Engine::finish_submit(std::shared_ptr<detail::RequestState> state,
                             ShedReason shed) {
  if (shed == ShedReason::None) {
    cv_.notify_one();
    return Ticket(std::move(state));
  }
  // The ticket contract for shed requests: complete immediately with a
  // typed status; wait() returns rather than throwing. Drop the payload
  // now — shedding must bound memory even while callers hold the ticket.
  state->b = DenseMatrix();
  state->graph.reset();
  state->overlay.reset();
  state->shards.reset();
  state->model.reset();
  RequestResult res;
  res.status = RequestStatus::Shed;
  res.shed_reason = shed;
  res.priority = state->priority;
  res.tenant = state->tenant_name;
  res.deadline_ms = state->deadline_ms;
  res.deadline_met = shed != ShedReason::DeadlineExceeded;
  res.batch_size = 0;
  state->fulfill(std::move(res));
  return Ticket(std::move(state));
}

UpdateReport Engine::apply_update(GraphId id, const EdgeBatch& batch) {
  // The whole update runs under mu_: it serializes with submissions, so a
  // request sees either the old state or the new one, never a mix. The
  // O(touched)/O(nnz) work this holds the lock for is the price of that
  // atomicity; updates are expected to be far rarer than submits.
  std::lock_guard<std::mutex> lock(mu_);
  if (shutting_down_) {
    throw std::runtime_error("Engine::apply_update: engine is shut down");
  }
  auto it = graphs_.find(id.key);
  if (it == graphs_.end()) {
    throw std::invalid_argument("Engine::apply_update: unknown graph handle");
  }
  RegisteredGraph& g = it->second;
  const std::uint64_t old_key = g.current_key;

  // Fold the batch (throws on a contract violation before any state
  // mutates — strong guarantee).
  std::shared_ptr<const DeltaOverlay> overlay =
      DeltaOverlay::apply(*g.csr, g.overlay.get(), batch);

  UpdateReport rep;
  GraphFingerprint fp = g.fp;
  fp.version += 1;
  rep.version = fp.version;

  const bool compact =
      static_cast<double>(overlay->overlay_nnz()) >
      opt_.delta.compact_nnz_fraction * static_cast<double>(g.csr->nnz());

  const std::size_t capacity = device_capacity();

  // Compute the graph's next state fully before committing anything, so a
  // capacity failure below leaves the registry untouched.
  std::shared_ptr<const Csr> new_csr = g.csr;
  std::shared_ptr<const DeltaOverlay> new_overlay = overlay;
  std::shared_ptr<const ShardPlan> new_shards = g.shards;
  std::vector<std::uint64_t> stale_keys;  // plan-cache keys to invalidate

  if (compact) {
    // Fold the overlay into a fresh CSR; the structural fingerprint
    // fields refresh here (the O(nnz) pass is being paid anyway) while
    // the bumped version carries forward. The lineage re-anchors the
    // handle on the new classic key, keeping the compacted identity
    // distinct from any other graph of the same content and version.
    auto compacted = std::make_shared<const Csr>(overlay->materialize(*g.csr));
    fp = fingerprint(*compacted);
    fp.lineage = id.key - fp.key();
    fp.version = rep.version;
    new_csr = std::move(compacted);
    new_overlay = nullptr;
    rep.compacted = true;
  }

  if (g.shards != nullptr) {
    // Sharded path: the row partition stays fixed between compactions and
    // only the touched slices rebuild (their content-addressed keys roll
    // forward by themselves); a compaction re-balances the partition from
    // scratch, like registration would.
    auto plan = std::make_shared<ShardPlan>();
    if (compact) {
      *plan = plan_shards(*new_csr, static_cast<int>(opt_.devices.size()));
      if (plan->max_shard_bytes() > capacity) {
        throw std::runtime_error(
            "Engine::apply_update: compacted operand does not fit even "
            "sharded " + std::to_string(opt_.devices.size()) + " ways");
      }
      for (const auto& s : g.shards->shards) stale_keys.push_back(s.key);
      rep.shards_replanned = plan->num_shards();
    } else {
      *plan = *g.shards;
      for (GraphShard& s : plan->shards) {
        if (!overlay->touches(s.row_begin, s.row_end)) continue;
        stale_keys.push_back(s.key);
        Csr slice = overlay->materialize_rows(*g.csr, s.row_begin, s.row_end);
        s = make_shard_from_slice(std::move(slice), s.index, s.row_begin,
                                  s.row_end);
        ++rep.shards_replanned;
      }
      if (plan->max_shard_bytes() > capacity) {
        throw std::runtime_error(
            "Engine::apply_update: a grown shard no longer fits its "
            "device; lower DeltaOptions::compact_nnz_fraction");
      }
    }
    new_shards = std::move(plan);
  } else {
    if (csr_bytes(*new_csr) > capacity && compact) {
      throw std::runtime_error(
          "Engine::apply_update: compacted operand exceeds the device "
          "capacity (updates cannot re-shard an unsharded graph)");
    }
    // Unsharded plans key on the graph's current fingerprint key, so the
    // version bump already reroutes new batches; erase the now-stale old
    // generation eagerly instead of waiting for LRU pressure.
    stale_keys.push_back(old_key);
  }

  // Commit.
  g.csr = std::move(new_csr);
  g.overlay = std::move(new_overlay);
  g.shards = std::move(new_shards);
  g.fp = fp;
  g.current_key = fp.key();
  rep.overlay_nnz = g.overlay == nullptr ? 0 : g.overlay->overlay_nnz();

  for (const std::uint64_t k : stale_keys) {
    rep.plans_invalidated += plan_cache_.invalidate(k);
  }

  // Rebind models compiled against the pre-update state: recompile over
  // the new effective CSR under the same registry key, so ModelId handles
  // stay stable. In-flight model tickets hold their own RegisteredModel
  // (and with it the old CSR snapshot) and finish against it. The
  // effective CSR is an O(nnz) copy when an overlay is resident, so it is
  // built only once a bound model needs it.
  std::shared_ptr<const Csr> effective;
  for (auto& kv : models_) {
    std::shared_ptr<const RegisteredModel>& m = kv.second;
    if (m->plan.graph_key != old_key) continue;
    if (effective == nullptr) effective = effective_graph(g);
    ModelPlan plan = compile_model(g.current_key, *effective, m->spec);
    m = std::make_shared<const RegisteredModel>(
        RegisteredModel{std::move(plan), m->spec, effective});
  }

  ++stats_.graph_updates;
  if (rep.compacted) ++stats_.graph_compactions;
  stats_.shards_replanned += static_cast<std::uint64_t>(rep.shards_replanned);
  return rep;
}

void Engine::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  workers_.reserve(static_cast<std::size_t>(opt_.num_workers));
  for (int i = 0; i < opt_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Engine::shutdown() {
  start();  // a paused engine still owes its queue a drain
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (auto& w : workers) w.join();
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  EngineStats st = stats_;
  st.admission = admission_.stats();
  st.graphs = scheduler_.stats();
  st.plan_invalidations = plan_cache_.stats().invalidations;
  return st;
}

double Engine::virtual_now_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return virtual_now_ms_;
}

void Engine::worker_loop() {
  for (;;) {
    Batch batch;
    std::size_t device_index = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !scheduler_.empty() || shutting_down_; });
      if (scheduler_.empty()) return;  // shutting down and fully drained

      const std::vector<std::uint64_t> seqs = scheduler_.next_batch();
      batch.reserve(seqs.size());
      for (const std::uint64_t seq : seqs) {
        auto it = pending_states_.find(seq);
        batch.push_back(std::move(it->second));
        pending_states_.erase(it);
      }
      device_index = next_device_++ % opt_.devices.size();
    }
    if (batch.front()->model != nullptr) {
      // The scheduler ships model requests as singleton batches.
      execute_model(std::move(batch), device_index);
    } else {
      execute_spmm(std::move(batch), device_index);
    }
  }
}

namespace {

/// First element of row i. Every matrix the engine copies between is
/// row-major: submit rejects any other B, and the engine allocates its
/// outputs row-major.
value_t* row_ptr(DenseMatrix& m, index_t i) { return m.device().data() + m.offset(i, 0); }
const value_t* row_ptr(const DenseMatrix& m, index_t i) {
  return m.device().data() + m.offset(i, 0);
}

/// Copy `width` columns of every row of `src`, starting at column
/// `src_col`, into `dst` at column `dst_col`: one memcpy per row.
void copy_columns(const DenseMatrix& src, index_t src_col, DenseMatrix& dst,
                  index_t dst_col, index_t width) {
  const std::size_t bytes = static_cast<std::size_t>(width) * sizeof(value_t);
  for (index_t i = 0; i < src.rows(); ++i) {
    std::memcpy(row_ptr(dst, i) + dst_col, row_ptr(src, i) + src_col, bytes);
  }
}

/// Column-wise coalesce of a batch's feature matrices:
/// B_all = [B_1 | B_2 | ...]. Returns a pointer into `storage` (or the
/// single request's own matrix): column independence of SpMM makes the
/// split outputs bitwise identical to per-request execution.
const DenseMatrix* coalesce_features(
    const std::vector<std::shared_ptr<detail::RequestState>>& batch,
    index_t b_rows, index_t total_n, DenseMatrix* storage) {
  if (batch.size() == 1) return &batch.front()->b;
  *storage = DenseMatrix(b_rows, total_n);
  index_t col0 = 0;
  for (const auto& r : batch) {
    copy_columns(r->b, 0, *storage, col0, r->b.cols());
    col0 += r->b.cols();
  }
  return storage;
}

/// One request's columns [col0, col0 + width) of the batch output. A
/// single-request batch's output is exactly its result, so it moves out
/// instead of being copied.
DenseMatrix split_result(DenseMatrix& c_all, std::size_t batch_size, index_t col0,
                         index_t width) {
  if (batch_size == 1) return std::move(c_all);
  DenseMatrix c(c_all.rows(), width);
  copy_columns(c_all, col0, c, 0, width);
  return c;
}

/// One kernel launch of a batch: a CSR (the whole operand, or one shard's
/// row slice) and where its rows, plan and device come from.
struct Launch {
  const Csr* csr = nullptr;
  /// Plan-cache graph key and shard index (-1 for the whole operand).
  std::uint64_t plan_graph = 0;
  std::int32_t shard = -1;
  /// First output row the launch computes.
  index_t row_begin = 0;
  /// B rows the launch must gather from peer devices first.
  index_t halo_cols = 0;
  std::size_t device = 0;
};

}  // namespace

void Engine::execute_spmm(Batch batch, std::size_t device_index) {
  const detail::RequestState& head = *batch.front();
  const Csr& a = *head.graph;
  const ReduceKind reduce = head.reduce;

  index_t total_n = 0;
  for (const auto& r : batch) total_n += r->b.cols();
  DenseMatrix coalesced;
  const DenseMatrix* b_all = coalesce_features(batch, a.cols, total_n, &coalesced);

  // An unsharded graph is one launch on the round-robin device. A sharded
  // graph spans the whole device group instead: shard i runs on
  // devices[i], all in parallel, each against its own shard-qualified
  // plan.
  std::vector<Launch> launches;
  if (head.shards == nullptr) {
    launches.push_back({&a, head.graph_key, -1, 0, 0, device_index});
  } else {
    for (const GraphShard& s : head.shards->shards) {
      launches.push_back({&s.csr, s.key, s.index, s.row_begin, s.halo_cols,
                          static_cast<std::size_t>(s.index)});
    }
  }

  DenseMatrix c_all(a.rows, total_n);
  Charge charge;
  RequestResult shared;
  for (const Launch& l : launches) {
    const gpusim::DeviceSpec& dev = opt_.devices[l.device];
    // The lease pins the plan while the launch runs: an in-flight plan is
    // never evicted, so concurrent same-shape batches hit. It drops at the
    // end of the launch, so once a ticket's wait() returns this batch
    // holds no pins and a quiesced apply_update invalidates
    // deterministically.
    const PlanLease lease =
        plan_cache_.acquire({l.plan_graph, dev.name, total_n, reduce, l.shard}, *l.csr, dev);
    if (&l == &launches.front()) {  // the result reports shard 0's plan
      shared.algo = lease->algo;
      shared.plan_steps = lease->steps;
      shared.device = dev.name;
    }

    // A shard's rows are computed in place at its row_begin. Row-parallel
    // SpMM makes this bitwise identical to the unsharded kernel: same
    // per-row accumulation order, different host.
    kernels::spmm_host_parallel(*l.csr, *b_all, c_all, reduce, l.row_begin);

    // Before a shard's kernel can run it must gather its halo rows of B
    // from peer devices; that transfer is priced against the modelled
    // interconnect and charged to the launch's device clock, so scaling
    // honestly pays for the scatter/gather structure. The batch completes
    // with its slowest launch (the makespan the scaling bench measures).
    // A launch without halo rows never touches the interconnect.
    const double halo_bytes =
        static_cast<double>(l.halo_cols) * static_cast<double>(total_n) * sizeof(value_t);
    const double gather_ms =
        l.halo_cols > 0 ? halo_bytes / (opt_.sharding.interconnect_gbps * 1e6) : 0.0;
    const double launch_ms = lease->modelled_ms + gather_ms;
    charge.gather_ms += gather_ms;
    shared.modelled_ms = std::max(shared.modelled_ms, launch_ms);
    // A cold miss pays for the selection itself: the sweep's profiling
    // runs beyond the winner (0 under the default Predict mode). Hits ride
    // the already-paid selection.
    const bool hit = lease.hit();
    charge.devices.push_back({l.device, launch_ms, hit ? 0.0 : lease->build_ms,
                              hit ? 1u : 0u, hit ? 0u : 1u});
    if (l.shard >= 0) ++charge.shard_launches;
  }

  // Dynamic overlay: touched rows' outputs are recomputed from their
  // post-update (canonical) form and overwrite the base kernel's rows.
  // Overlay rows are complete replacements, so this is bitwise identical
  // to running the materialized CSR — the patch rows run the same
  // per-row accumulation order compaction would store. The plan (and its
  // modelled time) stays priced on the base: the overlay is bounded by
  // the compaction fraction, so the base shape dominates.
  if (const DeltaOverlay* ov = head.overlay.get()) {
    const Csr& patch = ov->patch();
    DenseMatrix c_patch(patch.rows, total_n);
    kernels::spmm_host_parallel(patch, *b_all, c_patch, reduce);
    const std::vector<index_t>& prows = ov->rows();
    const std::size_t row_bytes = static_cast<std::size_t>(total_n) * sizeof(value_t);
    for (index_t i = 0; i < patch.rows; ++i) {
      std::memcpy(row_ptr(c_all, prows[static_cast<std::size_t>(i)]), row_ptr(c_patch, i),
                  row_bytes);
    }
  }

  shared.shards = head.shards == nullptr ? 0 : head.shards->num_shards();
  account(batch, charge, shared);
  fulfill(batch, c_all, shared);
}

void Engine::execute_model(Batch batch, std::size_t device_index) {
  detail::RequestState& state = *batch.front();
  const gpusim::DeviceSpec& dev = opt_.devices[device_index];
  const RegisteredModel& m = *state.model;
  const Csr& a = *state.graph;
  const gnn::DeviceCost cost(dev);

  // One arena per pass: hidden layers share widths, so after the first
  // layer every intermediate comes out of the pool instead of a fresh
  // allocation (ModelPlan::max_width bounds each slot).
  ModelArena arena;
  DenseMatrix h = std::move(state.b);
  double composed_ms = 0.0;
  Charge::Device device{device_index};
  RequestResult shared;
  for (std::size_t l = 0; l < m.plan.layers.size(); ++l) {
    const LayerStep& s = m.plan.layers[l];
    // Per-layer plan reuse: the aggregation keys into the same PlanCache
    // as plain SpMM traffic, so layers of one model, repeated passes and
    // standalone requests at the same (graph, width, reduce) all share
    // one autotuned plan. The lease pins it for the layer's duration.
    const PlanKey key{m.plan.graph_key, dev.name, s.spmm_width, s.reduce};
    const PlanLease lease = plan_cache_.acquire(key, a, dev);
    (lease.hit() ? device.hits : device.misses) += 1;
    if (!lease.hit()) device.build_ms += lease->build_ms;
    shared.algo = lease->algo;
    shared.plan_steps = lease->steps;
    const LayerCost lc = price_layer(s, a.rows, lease->modelled_ms, cost);
    device.modelled_ms += lc.fused_ms;
    composed_ms += lc.composed_ms;

    DenseMatrix out = arena.take(a.rows, s.out_width);
    run_layer(a, s, h, m.spec.weights[l], m.spec.bias[l], out, arena);
    arena.put(std::move(h));
    h = std::move(out);
  }

  // The device's clock advances by the *fused* pass time — that is what
  // serving pays. Cold layer plans charge their selection cost on top (0
  // under Predict), kept out of the result's modelled time, which stays
  // the fused execution time.
  Charge charge;
  charge.devices.push_back(device);
  charge.fused_saved_ms = composed_ms - device.modelled_ms;
  shared.device = dev.name;
  shared.modelled_ms = device.modelled_ms;
  shared.composed_ms = composed_ms;
  shared.model_layers = static_cast<int>(m.plan.layers.size());
  account(batch, charge, shared);
  fulfill(batch, h, shared);
}

void Engine::account(const Batch& batch, const Charge& charge, RequestResult& shared) {
  // completed_at is the busiest participating device's cumulative
  // modelled time including this batch — the virtual clock latency
  // percentiles are computed over.
  std::lock_guard<std::mutex> lock(mu_);
  double completed_at = 0.0;
  bool plan_cache_hit = true;
  for (const Charge::Device& c : charge.devices) {
    plan_cache_hit = plan_cache_hit && c.misses == 0;
    DeviceServeStats& ds = stats_.devices[c.index];
    ds.requests += batch.size();
    ds.batches += 1;
    ds.modelled_ms += c.modelled_ms + c.build_ms;
    completed_at = std::max(completed_at, ds.modelled_ms);
    ds.plan_cache_hits += c.hits;
    ds.plan_cache_misses += c.misses;
    stats_.plan_cache_hits += c.hits;
    stats_.plan_cache_misses += c.misses;
    stats_.modelled_ms += c.modelled_ms + c.build_ms;
    stats_.plan_build_ms += c.build_ms;
  }
  virtual_now_ms_ = std::max(virtual_now_ms_, completed_at);
  stats_.completed += batch.size();
  stats_.batches += 1;
  if (batch.size() > 1) stats_.coalesced_requests += batch.size();
  stats_.shard_launches += charge.shard_launches;
  stats_.gather_ms += charge.gather_ms;
  stats_.fused_saved_ms += charge.fused_saved_ms;
  for (const auto& r : batch) {
    TenantServeStats& ts = stats_.tenants[r->tenant];
    ++ts.completed;
    ts.served_width += static_cast<std::uint64_t>(r->sched_width);
    if (r->deadline_ms > 0.0 && completed_at > r->deadline_ms) {
      ++stats_.deadline_missed;
    }
  }
  shared.completed_at_ms = completed_at;
  shared.plan_cache_hit = plan_cache_hit;
}

void Engine::fulfill(const Batch& batch, DenseMatrix& c_all, const RequestResult& shared) {
  const index_t total_n = c_all.cols();
  index_t col0 = 0;
  for (const auto& r : batch) {
    const index_t n_r = r->b.cols();
    RequestResult res = shared;
    res.c = split_result(c_all, batch.size(), col0, n_r);
    col0 += n_r;
    res.priority = r->priority;
    res.tenant = r->tenant_name;
    // A model pass is a whole request and reports its whole fused time.
    if (res.model_layers == 0) res.modelled_ms = shared.modelled_ms * n_r / total_n;
    res.deadline_ms = r->deadline_ms;
    res.deadline_met = r->deadline_ms <= 0.0 || res.completed_at_ms <= r->deadline_ms;
    res.batch_size = static_cast<int>(batch.size());
    r->fulfill(std::move(res));
  }
}

}  // namespace gespmm::serve
