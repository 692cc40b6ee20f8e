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
/// (sorted-name order == tenant index order) before any member that
/// depends on it is constructed.
ServeOptions prepare_options(ServeOptions opt) {
  if (opt.tenants.empty()) {
    throw std::invalid_argument("Engine: at least one tenant required");
  }
  opt.scheduler.tenant_shares.clear();
  opt.scheduler.tenant_shares.reserve(opt.tenants.size());
  for (const auto& [name, cfg] : opt.tenants) {
    if (!(cfg.share > 0.0) || !std::isfinite(cfg.share)) {
      throw std::invalid_argument("Engine: tenant \"" + name +
                                  "\" share must be positive and finite");
    }
    opt.scheduler.tenant_shares.push_back(cfg.share);
  }
  return opt;
}

}  // namespace

Engine::Engine(ServeOptions opt)
    : opt_(prepare_options(std::move(opt))),
      plan_cache_(opt_.plan),
      scheduler_(opt_.scheduler, opt_.batch),
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

GraphId Engine::register_graph(const Csr& a) {
  a.validate();
  const GraphFingerprint fp = fingerprint(a);
  const std::uint64_t key = fp.key();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (graphs_.contains(key)) {
      ++stats_.register_dedup_hits;
      return GraphId{key};
    }
  }

  // Shard planning happens outside the lock: it is an O(nnz) pass per
  // shard and only runs once per distinct oversized operand.
  std::size_t capacity = opt_.sharding.device_capacity_bytes;
  if (capacity == 0) {
    capacity = opt_.devices.front().dram_bytes;
    for (const auto& dev : opt_.devices) {
      capacity = std::min(capacity, dev.dram_bytes);
    }
  }
  std::shared_ptr<const ShardPlan> shards;
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
  if (graphs_.contains(key)) {
    ++stats_.register_dedup_hits;
  } else {
    graphs_.emplace(key, RegisteredGraph{std::make_shared<const Csr>(a),
                                         shards, nullptr, fp, key});
    ++stats_.graphs_registered;
    if (shards) ++stats_.graphs_sharded;
  }
  return GraphId{key};
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
  // equals its recompiled plan.key.
  for (const auto& [mid, m] : models_) {
    if (m->plan.key == key) {
      ++stats_.model_register_dedup_hits;
      return ModelId{mid};
    }
  }
  models_.emplace(key, std::move(model));
  ++stats_.models_registered;
  return ModelId{key};
}

std::shared_ptr<const RegisteredModel> Engine::model(ModelId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(id.key);
  if (it == models_.end()) {
    throw std::invalid_argument("Engine::model: unknown model handle");
  }
  return it->second;
}

Ticket Engine::submit(GraphId id, DenseMatrix b, const SubmitOptions& options) {
  auto state = std::make_shared<detail::RequestState>();
  state->reduce = options.reduce;
  state->priority = options.priority;
  state->tenant = tenant_index(options.tenant);
  state->tenant_name = options.tenant;
  state->deadline_ms = options.deadline_ms;
  bool shed = false;
  ShedReason reason = ShedReason::None;
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
    // base/overlay/shards stay valid however the registry moves on.
    state->graph_key = it->second.current_key;
    state->graph = it->second.csr;
    state->overlay = it->second.overlay;
    state->shards = it->second.shards;
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
    const AdmissionDecision d = admission_.admit(
        options.priority, scheduler_.pending(), tenant_cfgs_[state->tenant],
        options.deadline_ms, virtual_now_ms_);
    if (!d.admitted) {
      shed = true;
      reason = d.reason;
      ++stats_.shed;
      ++stats_.tenants[state->tenant].shed;
    } else {
      state->seq = next_seq_++;
      scheduler_.enqueue({state->seq, state->graph_key, state->b.cols(),
                          options.reduce, options.priority, /*model=*/false,
                          state->tenant});
      pending_states_.emplace(state->seq, state);
      ++stats_.submitted;
      ++stats_.tenants[state->tenant].submitted;
    }
  }
  if (shed) {
    // The ticket contract for shed requests: complete immediately with a
    // typed status; wait() returns rather than throwing. Drop the feature
    // matrix now — shedding must bound memory even while callers hold the
    // ticket.
    state->b = DenseMatrix();
    state->graph.reset();
    state->overlay.reset();
    state->shards.reset();
    RequestResult res;
    res.status = RequestStatus::Shed;
    res.shed_reason = reason;
    res.priority = options.priority;
    res.tenant = options.tenant;
    res.deadline_ms = options.deadline_ms;
    res.deadline_met = reason != ShedReason::DeadlineExceeded;
    res.batch_size = 0;
    state->fulfill(std::move(res));
    return Ticket(state);
  }
  cv_.notify_one();
  return Ticket(state);
}

Ticket Engine::submit_model(ModelId id, DenseMatrix features,
                            const SubmitOptions& options) {
  auto state = std::make_shared<detail::RequestState>();
  state->priority = options.priority;
  state->tenant = tenant_index(options.tenant);
  state->tenant_name = options.tenant;
  state->deadline_ms = options.deadline_ms;
  bool shed = false;
  ShedReason reason = ShedReason::None;
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
    state->sched_width = m->plan.total_spmm_width;
    const AdmissionDecision d = admission_.admit(
        options.priority, scheduler_.pending(), tenant_cfgs_[state->tenant],
        options.deadline_ms, virtual_now_ms_);
    if (!d.admitted) {
      shed = true;
      reason = d.reason;
      ++stats_.shed;
      ++stats_.tenants[state->tenant].shed;
    } else {
      state->seq = next_seq_++;
      // One ticket covers the whole forward pass; the model's summed
      // per-layer SpMM width is what the pass costs the queue's DRR
      // budget, so model and plain traffic compete on equal (width) terms.
      scheduler_.enqueue({state->seq, state->graph_key,
                          state->model->plan.total_spmm_width, state->reduce,
                          options.priority, /*model=*/true, state->tenant});
      pending_states_.emplace(state->seq, state);
      ++stats_.submitted;
      ++stats_.tenants[state->tenant].submitted;
      ++stats_.model_requests;
    }
  }
  if (shed) {
    // Same ticket contract as submit: complete immediately, drop the
    // payload so shedding bounds memory.
    state->b = DenseMatrix();
    state->graph.reset();
    state->model.reset();
    RequestResult res;
    res.status = RequestStatus::Shed;
    res.shed_reason = reason;
    res.priority = options.priority;
    res.tenant = options.tenant;
    res.deadline_ms = options.deadline_ms;
    res.deadline_met = reason != ShedReason::DeadlineExceeded;
    res.batch_size = 0;
    state->fulfill(std::move(res));
    return Ticket(state);
  }
  cv_.notify_one();
  return Ticket(state);
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

  std::size_t capacity = opt_.sharding.device_capacity_bytes;
  if (capacity == 0) {
    capacity = opt_.devices.front().dram_bytes;
    for (const auto& dev : opt_.devices) {
      capacity = std::min(capacity, dev.dram_bytes);
    }
  }

  // Compute the graph's next state fully before committing anything, so a
  // capacity failure below leaves the registry untouched.
  std::shared_ptr<const Csr> new_csr = g.csr;
  std::shared_ptr<const DeltaOverlay> new_overlay = overlay;
  std::shared_ptr<const ShardPlan> new_shards = g.shards;
  std::vector<std::uint64_t> stale_keys;  // plan-cache keys to invalidate

  if (compact) {
    // Fold the overlay into a fresh CSR; the structural fingerprint
    // fields refresh here (the O(nnz) pass is being paid anyway) while
    // the bumped version carries forward, keeping the compacted identity
    // distinct from any static registration of the same content.
    auto compacted = std::make_shared<const Csr>(overlay->materialize(*g.csr));
    const GraphFingerprint structural = fingerprint(*compacted);
    fp = structural;
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
    plan->graph_key = fp.key();
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
  // (and with it the old CSR snapshot) and finish against it.
  const std::shared_ptr<const Csr> effective = effective_graph(g);
  for (auto& kv : models_) {
    std::shared_ptr<const RegisteredModel>& m = kv.second;
    if (m->plan.graph_key != old_key) continue;
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
  const PlanCacheStats ps = plan_cache_.stats();
  st.plan_predicted_builds = ps.predicted_builds;
  st.plan_exact_builds = ps.exact_builds;
  st.plan_retunes = ps.retunes;
  st.plan_mispredicts = ps.mispredicts;
  st.plan_hybrid_builds = ps.hybrid_builds;
  st.plan_invalidations = ps.invalidations;
  return st;
}

double Engine::virtual_now_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return virtual_now_ms_;
}

void Engine::worker_loop() {
  for (;;) {
    std::vector<std::shared_ptr<detail::RequestState>> batch;
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
      execute_model(std::move(batch.front()), device_index);
    } else if (batch.front()->shards != nullptr) {
      // A sharded graph spans the whole device group; the round-robin
      // device pick does not apply.
      execute_sharded_batch(std::move(batch));
    } else {
      execute_batch(std::move(batch), device_index);
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

}  // namespace

void Engine::execute_batch(std::vector<std::shared_ptr<detail::RequestState>> batch,
                           std::size_t device_index) {
  const gpusim::DeviceSpec& dev = opt_.devices[device_index];
  const Csr& a = *batch.front()->graph;
  const ReduceKind reduce = batch.front()->reduce;

  index_t total_n = 0;
  for (const auto& r : batch) total_n += r->b.cols();
  DenseMatrix coalesced;
  const DenseMatrix* b_all = coalesce_features(batch, a.cols, total_n, &coalesced);

  // The lease pins the plan for the duration of the batch: an in-flight
  // plan is never evicted, so concurrent same-shape batches hit.
  const PlanKey key{batch.front()->graph_key, dev.name, total_n, reduce};
  PlanLease lease = plan_cache_.acquire(key, a, dev);
  const bool hit = lease.hit();
  const auto plan = lease.plan();
  // A cold miss pays for the selection itself: the sweep's profiling runs
  // beyond the winner (0 under the default Predict mode). Hits ride the
  // already-paid selection.
  const double build_ms = hit ? 0.0 : plan->build_ms;

  DenseMatrix c_all(a.rows, total_n);
  kernels::spmm_host_parallel(a, *b_all, c_all, reduce);

  // Dynamic overlay: touched rows' outputs are recomputed from their
  // post-update (canonical) form and overwrite the base kernel's rows.
  // Overlay rows are complete replacements, so this is bitwise identical
  // to running the materialized CSR — the patch rows run the same
  // per-row accumulation order compaction would store. The plan (and its
  // modelled time) stays priced on the base: the overlay is bounded by
  // the compaction fraction, so the base shape dominates.
  if (const DeltaOverlay* ov = batch.front()->overlay.get()) {
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

  // Account the batch before fulfilling tickets: once a ticket reads
  // ready, its batch is visible in stats(). completed_at is the device's
  // cumulative modelled time including this batch — the virtual clock
  // latency percentiles are computed over.
  double completed_at = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DeviceServeStats& ds = stats_.devices[device_index];
    ds.requests += batch.size();
    ds.batches += 1;
    ds.modelled_ms += plan->modelled_ms + build_ms;
    completed_at = ds.modelled_ms;
    virtual_now_ms_ = std::max(virtual_now_ms_, completed_at);
    (hit ? ds.plan_cache_hits : ds.plan_cache_misses) += 1;
    stats_.completed += batch.size();
    stats_.batches += 1;
    if (batch.size() > 1) stats_.coalesced_requests += batch.size();
    (hit ? stats_.plan_cache_hits : stats_.plan_cache_misses) += 1;
    stats_.modelled_ms += plan->modelled_ms + build_ms;
    stats_.plan_build_ms += build_ms;
    for (const auto& r : batch) {
      TenantServeStats& ts = stats_.tenants[r->tenant];
      ++ts.completed;
      ts.served_width += static_cast<std::uint64_t>(r->sched_width);
      if (r->deadline_ms > 0.0 && completed_at > r->deadline_ms) {
        ++stats_.deadline_missed;
      }
    }
  }

  // Drop the pin before any waiter can wake: once a ticket's wait()
  // returns, this batch holds no plan-cache pins, so a caller that
  // quiesces the engine and then calls apply_update gets deterministic
  // targeted invalidation (a pinned entry would survive it). The sharded
  // and model paths already scope their leases per shard / per layer.
  lease.release();

  index_t col0 = 0;
  for (const auto& r : batch) {
    const index_t n_r = r->b.cols();
    RequestResult res;
    res.c = split_result(c_all, batch.size(), col0, n_r);
    col0 += n_r;
    res.status = RequestStatus::Ok;
    res.priority = r->priority;
    res.tenant = r->tenant_name;
    res.algo = plan->algo;
    res.plan_steps = plan->steps;
    res.device = dev.name;
    res.modelled_ms = plan->modelled_ms * n_r / total_n;
    res.completed_at_ms = completed_at;
    res.deadline_ms = r->deadline_ms;
    res.deadline_met = r->deadline_ms <= 0.0 || completed_at <= r->deadline_ms;
    res.plan_cache_hit = hit;
    res.batch_size = static_cast<int>(batch.size());
    r->fulfill(std::move(res));
  }
}

void Engine::execute_sharded_batch(
    std::vector<std::shared_ptr<detail::RequestState>> batch) {
  const ShardPlan& plan = *batch.front()->shards;
  const Csr& a = *batch.front()->graph;
  const ReduceKind reduce = batch.front()->reduce;
  const int num_shards = plan.num_shards();

  index_t total_n = 0;
  for (const auto& r : batch) total_n += r->b.cols();
  DenseMatrix coalesced;
  const DenseMatrix* b_all = coalesce_features(batch, a.cols, total_n, &coalesced);

  // Scatter: shard i executes on devices[i] — all shards in parallel, each
  // against its own shard-qualified plan. Before a shard's kernel can run
  // it must gather the B rows it references but does not own (its halo
  // columns) from peer devices; that transfer is priced against the
  // modelled interconnect and charged to the shard's device clock, so
  // scaling honestly pays for the scatter/gather structure.
  DenseMatrix c_all(a.rows, total_n);
  std::vector<double> shard_ms(static_cast<std::size_t>(num_shards), 0.0);
  std::vector<double> shard_build_ms(static_cast<std::size_t>(num_shards), 0.0);
  std::vector<bool> shard_hit(static_cast<std::size_t>(num_shards), false);
  double gather_total_ms = 0.0;
  SpmmAlgo algo0 = SpmmAlgo::GeSpMM;
  std::vector<PlanStep> steps0;
  bool all_hit = true;
  for (int si = 0; si < num_shards; ++si) {
    const GraphShard& shard = plan.shards[static_cast<std::size_t>(si)];
    const gpusim::DeviceSpec& dev = opt_.devices[static_cast<std::size_t>(si)];
    const PlanKey key{shard.key, dev.name, total_n, reduce, si};
    const PlanLease lease = plan_cache_.acquire(key, shard.csr, dev);
    shard_hit[static_cast<std::size_t>(si)] = lease.hit();
    all_hit = all_hit && lease.hit();
    if (si == 0) {
      algo0 = lease->algo;
      steps0 = lease->steps;
    }

    // Merge: the shard's rows are one contiguous block of the row-major
    // full output. Row-parallel SpMM makes this bitwise identical to the
    // unsharded kernel — same per-row accumulation order, different host.
    DenseMatrix c_shard(shard.rows(), total_n);
    kernels::spmm_host_parallel(shard.csr, *b_all, c_shard, reduce);
    std::memcpy(row_ptr(c_all, shard.row_begin), c_shard.device().data(),
                c_shard.size() * sizeof(value_t));

    const double halo_bytes = static_cast<double>(shard.halo_cols) *
                              static_cast<double>(total_n) * sizeof(value_t);
    const double gather_ms =
        halo_bytes / (opt_.sharding.interconnect_gbps * 1e6);
    gather_total_ms += gather_ms;
    shard_ms[static_cast<std::size_t>(si)] = lease->modelled_ms + gather_ms;
    // Cold shard plans charge their selection cost (the sweep's extra
    // profiling runs) to the shard's device; kept out of shard_ms so the
    // makespan below stays an execution metric.
    if (!lease.hit()) shard_build_ms[static_cast<std::size_t>(si)] = lease->build_ms;
  }

  // Account before fulfilling, like execute_batch. Each shard's device
  // clock advances by its own shard time; the batch completes when the
  // slowest participating device does (the makespan the scaling bench
  // measures).
  double completed_at = 0.0;
  double makespan_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int si = 0; si < num_shards; ++si) {
      DeviceServeStats& ds = stats_.devices[static_cast<std::size_t>(si)];
      ds.requests += batch.size();
      ds.batches += 1;
      ds.modelled_ms += shard_ms[static_cast<std::size_t>(si)] +
                        shard_build_ms[static_cast<std::size_t>(si)];
      completed_at = std::max(completed_at, ds.modelled_ms);
      makespan_ms =
          std::max(makespan_ms, shard_ms[static_cast<std::size_t>(si)]);
      (shard_hit[static_cast<std::size_t>(si)] ? ds.plan_cache_hits
                                               : ds.plan_cache_misses) += 1;
      (shard_hit[static_cast<std::size_t>(si)] ? stats_.plan_cache_hits
                                               : stats_.plan_cache_misses) += 1;
      stats_.modelled_ms += shard_ms[static_cast<std::size_t>(si)] +
                            shard_build_ms[static_cast<std::size_t>(si)];
      stats_.plan_build_ms += shard_build_ms[static_cast<std::size_t>(si)];
    }
    virtual_now_ms_ = std::max(virtual_now_ms_, completed_at);
    stats_.completed += batch.size();
    stats_.batches += 1;
    stats_.shard_launches += static_cast<std::uint64_t>(num_shards);
    stats_.gather_ms += gather_total_ms;
    if (batch.size() > 1) stats_.coalesced_requests += batch.size();
    for (const auto& r : batch) {
      TenantServeStats& ts = stats_.tenants[r->tenant];
      ++ts.completed;
      ts.served_width += static_cast<std::uint64_t>(r->sched_width);
      if (r->deadline_ms > 0.0 && completed_at > r->deadline_ms) {
        ++stats_.deadline_missed;
      }
    }
  }

  index_t col0 = 0;
  for (const auto& r : batch) {
    const index_t n_r = r->b.cols();
    RequestResult res;
    res.c = split_result(c_all, batch.size(), col0, n_r);
    col0 += n_r;
    res.status = RequestStatus::Ok;
    res.priority = r->priority;
    res.tenant = r->tenant_name;
    res.algo = algo0;
    res.plan_steps = steps0;
    res.device = opt_.devices.front().name;
    res.modelled_ms = makespan_ms * n_r / total_n;
    res.completed_at_ms = completed_at;
    res.deadline_ms = r->deadline_ms;
    res.deadline_met = r->deadline_ms <= 0.0 || completed_at <= r->deadline_ms;
    res.plan_cache_hit = all_hit;
    res.batch_size = static_cast<int>(batch.size());
    res.shards = num_shards;
    r->fulfill(std::move(res));
  }
}

void Engine::execute_model(std::shared_ptr<detail::RequestState> state,
                           std::size_t device_index) {
  const gpusim::DeviceSpec& dev = opt_.devices[device_index];
  const RegisteredModel& m = *state->model;
  const Csr& a = *state->graph;
  const gnn::DeviceCost cost(dev);

  // One arena per pass: hidden layers share widths, so after the first
  // layer every intermediate comes out of the pool instead of a fresh
  // allocation (ModelPlan::max_width bounds each slot).
  ModelArena arena;
  DenseMatrix h = std::move(state->b);
  double fused_ms = 0.0;
  double composed_ms = 0.0;
  std::uint64_t layer_hits = 0;
  std::uint64_t layer_misses = 0;
  double build_total_ms = 0.0;
  SpmmAlgo algo = SpmmAlgo::GeSpMM;
  std::vector<PlanStep> last_steps;
  for (std::size_t l = 0; l < m.plan.layers.size(); ++l) {
    const LayerStep& s = m.plan.layers[l];
    // Per-layer plan reuse: the aggregation keys into the same PlanCache
    // as plain SpMM traffic, so layers of one model, repeated passes and
    // standalone requests at the same (graph, width, reduce) all share
    // one autotuned plan. The lease pins it for the layer's duration.
    const PlanKey key{m.plan.graph_key, dev.name, s.spmm_width, s.reduce};
    const PlanLease lease = plan_cache_.acquire(key, a, dev);
    (lease.hit() ? layer_hits : layer_misses) += 1;
    if (!lease.hit()) build_total_ms += lease->build_ms;
    algo = lease->algo;
    last_steps = lease->steps;
    const LayerCost lc = price_layer(s, a.rows, lease->modelled_ms, cost);
    fused_ms += lc.fused_ms;
    composed_ms += lc.composed_ms;

    DenseMatrix out = arena.take(a.rows, s.out_width);
    run_layer(a, s, h, m.spec.weights[l], m.spec.bias[l], out, arena);
    arena.put(std::move(h));
    h = std::move(out);
  }

  // Account before fulfilling, like execute_batch: the device's clock
  // advances by the *fused* pass time — that is what serving pays.
  double completed_at = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    DeviceServeStats& ds = stats_.devices[device_index];
    ds.requests += 1;
    ds.batches += 1;
    // Cold layer plans charge their selection cost on top of the fused
    // pass (0 under Predict); kept out of res.modelled_ms, which stays
    // the fused execution time.
    ds.modelled_ms += fused_ms + build_total_ms;
    completed_at = ds.modelled_ms;
    virtual_now_ms_ = std::max(virtual_now_ms_, completed_at);
    ds.plan_cache_hits += layer_hits;
    ds.plan_cache_misses += layer_misses;
    stats_.completed += 1;
    stats_.batches += 1;
    stats_.plan_cache_hits += layer_hits;
    stats_.plan_cache_misses += layer_misses;
    stats_.modelled_ms += fused_ms + build_total_ms;
    stats_.plan_build_ms += build_total_ms;
    stats_.fused_saved_ms += composed_ms - fused_ms;
    TenantServeStats& ts = stats_.tenants[state->tenant];
    ++ts.completed;
    ts.served_width += static_cast<std::uint64_t>(state->sched_width);
    if (state->deadline_ms > 0.0 && completed_at > state->deadline_ms) {
      ++stats_.deadline_missed;
    }
  }

  RequestResult res;
  res.status = RequestStatus::Ok;
  res.priority = state->priority;
  res.tenant = state->tenant_name;
  res.c = std::move(h);
  res.algo = algo;
  res.plan_steps = std::move(last_steps);
  res.device = dev.name;
  res.modelled_ms = fused_ms;
  res.composed_ms = composed_ms;
  res.completed_at_ms = completed_at;
  res.deadline_ms = state->deadline_ms;
  res.deadline_met =
      state->deadline_ms <= 0.0 || completed_at <= state->deadline_ms;
  res.plan_cache_hit = layer_misses == 0;
  res.batch_size = 1;
  res.model_layers = static_cast<int>(m.plan.layers.size());
  state->fulfill(std::move(res));
}

}  // namespace gespmm::serve
