#pragma once
/// \file engine.hpp
/// The batched SpMM serving engine: concurrent submit/wait execution of
/// SpMM requests with multi-tenant admission control, deadline shedding,
/// cross-graph weighted-fair scheduling, plan-cache reuse, same-graph
/// batching, and cross-device sharding of oversized graphs.
///
/// Request lifecycle:
///  1. `register_graph` fingerprints a CSR operand and stores it once
///     (re-registering an identical operand returns the existing handle,
///     unless `apply_update` has since moved that graph's content on).
///     An operand whose footprint exceeds the device capacity is
///     row-partitioned across the whole device group at registration time
///     (see shard.hpp and `ShardingOptions`);
///  2. `submit` takes a `SubmitOptions` aggregate (reduce, priority,
///     tenant, deadline) and checks admission (see admission.hpp): a shed
///     request's ticket completes *immediately* with
///     `RequestStatus::Shed` and a typed `ShedReason` — including
///     `DeadlineExceeded` when the deadline already passed on the virtual
///     clock; an admitted request enters its (graph, tenant) scheduler
///     queue and returns a pending `Ticket`;
///  3. worker threads pull batches from the scheduler (weighted deficit
///     round-robin across (graph, tenant) queues by default, each
///     tenant's width-credit quantum proportional to its configured
///     share — see scheduler.hpp), coalescing same-graph same-reduce
///     same-tenant requests into one multi-feature SpMM and
///     round-robining batches across the configured simulated devices;
///  4. each batch executes as a list of kernel launches, each through a
///     `PlanCache`d kernel plan (LRU-bounded, pinned while the launch
///     runs): values are computed on the host (bitwise identical to
///     per-request `gespmm::spmm`, column order is preserved), device time
///     is the plan's block-sampled modelled time. An unsharded graph is
///     one launch on the round-robin device; a *sharded* graph is one
///     launch per row slice, each on its own device in parallel (each with
///     its own shard-qualified plan), with halo rows of B priced as a
///     modelled interconnect gather and the merged output bitwise
///     identical to the unsharded kernel;
///  5. `Ticket::wait` blocks for the request's `RequestResult`.
///
/// Model serving (`register_model` / `submit_model`) promotes the unit of
/// service from one SpMM to one forward pass: a registered model compiles
/// to a `ModelPlan` (see model_plan.hpp) and a single ticket runs every
/// layer as a fused SpMM→GEMM chain — per-layer plans come from the same
/// `PlanCache` (shared across layers, models and plain SpMM traffic),
/// intermediates recycle through a `ModelArena`, and the scheduler prices
/// the ticket at the model's total SpMM width. Model requests never
/// coalesce with other requests; output values are bitwise identical to
/// composing per-layer `submit` calls with the host-side dense
/// transforms, only the modelled time differs (the fusion win). Models
/// aggregate over one device's resident CSR, so they cannot (yet) be
/// registered against a sharded graph.
///
/// Dynamic graphs (`apply_update`) keep a registered operand live under
/// streaming edge inserts/deletes: batches fold into a per-graph delta
/// overlay (merged into outputs at execution time), the graph's
/// fingerprint *version* bumps so plan and batch identities roll forward,
/// stale plans are invalidated targeted (only the updated graph's keys —
/// only the touched shards' keys when sharded), and the overlay
/// periodically compacts into a fresh CSR. Handles stay stable; requests
/// in flight across an update execute the snapshot they captured.
///
/// Ticket contract for shed requests: `wait()` NEVER throws and never
/// blocks — it returns a `RequestResult` with `status ==
/// RequestStatus::Shed`, the shedding `ShedReason`, and an empty (0 x 0)
/// output matrix. Callers distinguish outcomes by `status`, not by
/// exception. (`submit` itself still throws std::runtime_error once the
/// engine is shut down, and std::invalid_argument for malformed input or
/// an unknown tenant — those are caller errors, not load conditions.)
///
/// `shutdown()` (also run by the destructor) stops admission, drains every
/// *admitted* request, and joins the workers — no admitted request is
/// ever dropped, and every shed ticket was already complete at submit.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/admission.hpp"
#include "serve/delta.hpp"
#include "serve/fingerprint.hpp"
#include "serve/model_plan.hpp"
#include "serve/plan_cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/shard.hpp"

namespace gespmm::serve {

using kernels::DenseMatrix;

/// When and how `register_graph` shards an oversized operand across the
/// device group. Sharding triggers only when the operand does not fit one
/// device, so small-graph behaviour is bitwise unchanged.
struct ShardingOptions {
  /// Per-device CSR residency budget in bytes. 0 (the default) means the
  /// smallest `DeviceSpec::dram_bytes` across the configured devices —
  /// with the stock presets that is gigabytes, so only genuinely huge
  /// operands shard. Tests and benches set a small explicit budget to
  /// force sharding at their scale.
  std::size_t device_capacity_bytes = 0;
  /// Modelled bandwidth (GB/s) of the device interconnect the gather
  /// stage moves halo rows of B over. NVLink-class by default.
  double interconnect_gbps = 300.0;
};

/// Engine configuration.
struct ServeOptions {
  /// Simulated devices batches round-robin across (default: both of the
  /// paper's machines, GTX 1080Ti and RTX 2080). A sharded graph spans
  /// *all* of them: shard i executes on devices[i].
  std::vector<gpusim::DeviceSpec> devices;
  /// Worker threads draining the queue.
  int num_workers = 2;
  /// Coalescing limits (see scheduler.hpp).
  BatchConstraints batch;
  /// Plan construction + retention policy (see plan_cache.hpp).
  PlanCacheOptions plan;
  /// Engine-wide admission queue bound (see admission.hpp; per-tenant
  /// shed thresholds live in `tenants`).
  AdmissionOptions admission;
  /// Cross-queue scheduling policy (see scheduler.hpp). Its
  /// `tenant_shares` vector is filled by the engine from `tenants`.
  SchedulerOptions scheduler;
  /// The tenant roster: service contracts keyed by tenant name. Requests
  /// name their tenant in `SubmitOptions::tenant`; submitting under an
  /// unregistered name throws. Defaults to a single "default" tenant with
  /// share 1.0 and the classic shed fractions, which reproduces the
  /// previous single-tenant behaviour bitwise. Shares must be positive
  /// and finite (validated at engine construction).
  std::map<std::string, TenantConfig> tenants;
  /// Cross-device sharding policy for oversized graphs.
  ShardingOptions sharding;
  /// Dynamic-update policy: when `apply_update` overlays compact back
  /// into a fresh CSR (see delta.hpp).
  DeltaOptions delta;
  /// Construct with workers parked: nothing executes until `start()` (or
  /// `shutdown()`, which drains). Deterministic harnesses use this to
  /// fix batch composition independent of submission timing.
  bool start_paused = false;

  ServeOptions();  // defaults to {gtx1080ti, rtx2080} + a "default" tenant
};

/// Per-request submission parameters — one aggregate for `submit` and
/// `submit_model` instead of growing positional-default tails. Use
/// designated initializers at call sites:
/// `eng.submit(id, b, {.priority = Priority::Batch, .deadline_ms = 5.0})`.
struct SubmitOptions {
  /// Reduction of the SpMM-like operation (ignored by `submit_model`,
  /// which takes its reduce from the registered model spec).
  ReduceKind reduce = ReduceKind::Sum;
  /// Service class for admission and in-queue ordering.
  Priority priority = Priority::Interactive;
  /// Tenant the request bills to; must name an entry of
  /// `ServeOptions::tenants` or `submit` throws std::invalid_argument.
  std::string tenant = "default";
  /// Absolute virtual-clock completion deadline in ms; 0 = no deadline.
  /// A request whose deadline is at or before the clock at submit time is
  /// shed with `ShedReason::DeadlineExceeded`; one that completes later
  /// than its deadline reports `RequestResult::deadline_met == false`
  /// (completing exactly *at* the deadline counts as met).
  double deadline_ms = 0.0;
};

/// Handle to a registered graph; cheap to copy, valid for the engine's
/// lifetime.
struct GraphId {
  /// Stable opaque handle. It does not track the graph's content: see
  /// `Engine::graph_fingerprint` for the current identity.
  std::uint64_t key = 0;
};

/// Handle to a registered model; cheap to copy, valid for the engine's
/// lifetime.
struct ModelId {
  /// Stable opaque handle: the ModelPlan::key the model was first
  /// compiled under, unless an update-rebound model still holds that
  /// value. It does not track the model's current plan.
  std::uint64_t key = 0;
};

/// A registered model: its compiled plan, its parameters, and the graph
/// it aggregates over. Immutable once compiled; shared between the
/// registry, in-flight requests and introspecting callers.
struct RegisteredModel {
  ModelPlan plan;
  ModelSpec spec;
  /// The adjacency *snapshot* this compilation aggregates over — an
  /// explicit shared_ptr hold, not a registry lookup. `apply_update`
  /// rebinds the registry entry to a recompiled model over the new graph
  /// state, but an in-flight `submit_model` ticket that captured this
  /// RegisteredModel keeps both the plan and this CSR alive and
  /// consistent until it completes: model tickets racing an update
  /// execute the version they were admitted against.
  std::shared_ptr<const Csr> graph;
};

/// How a request finished.
enum class RequestStatus {
  /// Executed; `RequestResult::c` holds the output.
  Ok = 0,
  /// Shed by admission control; `RequestResult::c` is empty (0 x 0) and
  /// `shed_reason` says why. The ticket completed at submit time.
  Shed,
};

/// What a completed request gets back.
struct RequestResult {
  /// Ok or Shed — check before touching `c`.
  RequestStatus status = RequestStatus::Ok;
  /// Why admission shed the request (None when status == Ok).
  ShedReason shed_reason = ShedReason::None;
  /// Service class the request was submitted with.
  Priority priority = Priority::Interactive;
  /// Tenant the request was billed to.
  std::string tenant;
  /// Aggregated output, rows x n, row-major — bitwise identical to what
  /// `gespmm::spmm` would have produced for this request alone (sharded
  /// or not). Empty when the request was shed.
  DenseMatrix c;
  /// Kernel the serving plan selected for the *batch* this request rode
  /// in (shard 0's plan for a sharded graph).
  SpmmAlgo algo = SpmmAlgo::GeSpMM;
  /// The row-partition step list of that plan (shard 0's for a sharded
  /// graph, the last layer's for a model request): one step for a
  /// single-kernel plan, the dense-MMA + ragged-SIMT pair when the plan
  /// compiled to density-partitioned hybrid execution. Step times sum to
  /// the plan's modelled time (before batching/width proration). Empty
  /// for a shed request.
  std::vector<PlanStep> plan_steps;
  /// Device preset name the batch was dispatched to (the first shard
  /// device for a sharded graph — see `shards`).
  std::string device;
  /// This request's width-proportional share of the batch's modelled
  /// kernel time (ms), priced at the plan's (quantized) width — see
  /// PlanCacheOptions::width_quantum. For a sharded batch this is the
  /// width share of the *makespan* (slowest shard incl. its gather).
  double modelled_ms = 0.0;
  /// The dispatched device's cumulative modelled time (ms) when this
  /// request's batch finished — a deterministic virtual-clock completion
  /// stamp, the quantity latency percentiles are computed over. For a
  /// sharded batch: the busiest participating device's clock.
  double completed_at_ms = 0.0;
  /// The deadline the request was submitted with (0 = none).
  double deadline_ms = 0.0;
  /// True when the request had no deadline or completed at or before it
  /// (`completed_at_ms <= deadline_ms`). False for a completed-late
  /// request and for a deadline-shed one.
  bool deadline_met = true;
  /// Whether the batch's plan came out of the cache (all shard plans, for
  /// a sharded batch).
  bool plan_cache_hit = false;
  /// Number of requests coalesced into the batch (1 = ran alone; 0 for a
  /// shed request).
  int batch_size = 1;
  /// Device shards the batch scattered across (0 = unsharded).
  int shards = 0;
  /// For a `submit_model` ticket: layers the fused forward pass ran
  /// (0 for a plain SpMM request). `c` is then the num_nodes x out_feats
  /// output of the last layer and `modelled_ms` the *fused* whole-pass
  /// time.
  int model_layers = 0;
  /// For a `submit_model` ticket: what the same pass would have cost as
  /// layer-by-layer composition (separate SpMM / GEMM / epilogue
  /// launches). Always > `modelled_ms`; 0 for plain requests.
  double composed_ms = 0.0;
};

/// What one `Engine::apply_update` call did — returned to the caller so
/// streaming producers can observe compaction and invalidation behaviour
/// without polling stats.
struct UpdateReport {
  /// The graph's fingerprint version after this update (bumps by 1 per
  /// applied batch, monotonic across compactions).
  std::uint64_t version = 0;
  /// The overlay crossed `DeltaOptions::compact_nnz_fraction` and was
  /// folded into a fresh CSR (resetting the overlay to empty).
  bool compacted = false;
  /// Shard slices rebuilt: the shards whose row ranges the batch touched,
  /// or all of them on a compaction re-plan. 0 for an unsharded graph.
  int shards_replanned = 0;
  /// Stale plan-cache entries erased by the update's targeted
  /// invalidation (pinned entries survive; see PlanCache::invalidate).
  std::size_t plans_invalidated = 0;
  /// Overlay nnz resident after the update (0 right after a compaction).
  index_t overlay_nnz = 0;
};

namespace detail {
/// Shared state between a Ticket and the worker that fulfills it.
struct RequestState {
  /// The graph's *current* (version-bearing) fingerprint key at submit
  /// time — the plan-cache and coalescing identity, so requests straddling
  /// an update never share a batch.
  std::uint64_t graph_key = 0;
  std::uint64_t seq = 0;
  std::shared_ptr<const Csr> graph;
  /// Pending edge overlay snapshot (nullptr when the graph is clean or
  /// sharded — shard slices already hold the updated rows); the engine
  /// merges its touched rows over the base kernel's output.
  std::shared_ptr<const DeltaOverlay> overlay;
  /// Set when the graph is sharded: the execution plan for the scatter/
  /// gather path.
  std::shared_ptr<const ShardPlan> shards;
  /// Set for whole-model requests (`b` is then the input feature matrix).
  std::shared_ptr<const RegisteredModel> model;
  DenseMatrix b;
  ReduceKind reduce = ReduceKind::Sum;
  Priority priority = Priority::Interactive;
  std::uint32_t tenant = 0;
  std::string tenant_name;
  double deadline_ms = 0.0;
  /// Width the scheduler billed (b.cols, or the model's total SpMM
  /// width) — the per-tenant served_width currency.
  index_t sched_width = 0;

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  RequestResult result;

  void fulfill(RequestResult r);
  const RequestResult& wait();
};
}  // namespace detail

/// Future-like handle for one submitted request.
class Ticket {
 public:
  Ticket() = default;

  /// Block until the request completes; the result stays owned by the
  /// ticket and is valid for its lifetime. Never throws: a shed request
  /// yields `status == RequestStatus::Shed` (already complete at submit),
  /// an executed one `RequestStatus::Ok`.
  const RequestResult& wait() const { return state_->wait(); }

  /// Non-blocking completion probe (true immediately for shed requests).
  bool ready() const;

  /// False for a default-constructed ticket.
  bool valid() const { return state_ != nullptr; }

 private:
  friend class Engine;
  explicit Ticket(std::shared_ptr<detail::RequestState> s) : state_(std::move(s)) {}
  std::shared_ptr<detail::RequestState> state_;
};

/// Per-device dispatch counters.
struct DeviceServeStats {
  std::string device;
  /// Requests whose work ran on this device. A sharded request counts on
  /// every participating device (its shards all ran), so across devices
  /// these sum to >= `EngineStats::completed` when sharding is active.
  std::uint64_t requests = 0;
  /// Batch (or shard) kernel launches dispatched to this device.
  std::uint64_t batches = 0;
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  /// Sum of modelled batch kernel times dispatched to this device (ms),
  /// including modelled gather time for shard launches — this device's
  /// virtual clock.
  double modelled_ms = 0.0;
};

/// Per-tenant service counters, in `ServeOptions::tenants` (sorted-name)
/// order.
struct TenantServeStats {
  std::string tenant;
  /// Configured DRR share.
  double share = 1.0;
  /// Requests admitted for this tenant.
  std::uint64_t submitted = 0;
  /// Requests completed (executed) for this tenant.
  std::uint64_t completed = 0;
  /// Requests shed at admission for this tenant.
  std::uint64_t shed = 0;
  /// Summed width of completed requests — the weighted-DRR fairness
  /// currency, proportional to `share` across backlogged tenants.
  std::uint64_t served_width = 0;
};

/// Snapshot of engine-wide counters (consistent: taken under one lock).
///
/// Counting contract (pinned by the EngineStatsCountingContract golden):
///  - `submitted`, `completed`, `shed` count *requests*, each exactly
///    once: every submit/submit_model call lands in exactly one of
///    `submitted` (admitted) or `shed` (rejected), and every admitted
///    request is eventually counted once in `completed`.
///  - `model_requests` is a *view*, not a disjoint bucket: the subset of
///    `submitted` that came through submit_model. Plain-SpMM admits are
///    therefore `submitted - model_requests`. Nothing is double-counted.
///  - `admission.total_admitted() == submitted` and
///    `admission.total_shed() == shed` always.
///  - Per-tenant rows in `tenants` partition the same totals.
struct EngineStats {
  std::uint64_t graphs_registered = 0;
  /// register_graph() calls answered by an already-registered operand.
  std::uint64_t register_dedup_hits = 0;
  /// Registered graphs that were row-partitioned across the device group.
  std::uint64_t graphs_sharded = 0;
  /// apply_update() calls (edge batches folded into overlays).
  std::uint64_t graph_updates = 0;
  /// Updates whose overlay crossed the compaction fraction and was folded
  /// into a fresh CSR.
  std::uint64_t graph_compactions = 0;
  /// Shard slices rebuilt by updates (touched shards only, all shards on
  /// a compaction re-plan).
  std::uint64_t shards_replanned = 0;
  /// Stale plan-cache entries erased by targeted invalidation — mirrored
  /// from PlanCacheStats::invalidations because the perfbench harness
  /// reads it from here. The other plan counters are only in
  /// `Engine::plan_cache().stats()`.
  std::uint64_t plan_invalidations = 0;
  std::uint64_t models_registered = 0;
  /// register_model() calls answered by an identical registered model.
  std::uint64_t model_register_dedup_hits = 0;
  /// Whole-model requests admitted via submit_model — a subset of
  /// `submitted` (each such request is counted once in both; see the
  /// counting contract above). Each completes as one single-request
  /// batch.
  std::uint64_t model_requests = 0;
  /// Total modelled time fusion saved versus layer-by-layer composition
  /// across all completed model requests (sum of composed - fused, ms).
  double fused_saved_ms = 0.0;
  /// Requests admitted into the scheduler (shed requests are counted in
  /// `shed` / `admission`, not here).
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  /// Requests rejected by admission control (their tickets completed
  /// immediately with RequestStatus::Shed).
  std::uint64_t shed = 0;
  std::uint64_t batches = 0;
  /// Requests that shared their batch with at least one other request.
  std::uint64_t coalesced_requests = 0;
  /// Completed requests that finished after their deadline (deadline-shed
  /// requests never ran and are in `admission.shed_deadline` instead).
  std::uint64_t deadline_missed = 0;
  /// Shard kernel launches (a batch on an S-way sharded graph adds S).
  std::uint64_t shard_launches = 0;
  /// Total modelled interconnect time gathering halo rows of B for shard
  /// launches (ms); included in `modelled_ms`.
  double gather_ms = 0.0;
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  /// Modelled device time spent *selecting* kernels on cold plan misses —
  /// the exact sweep's profiling runs beyond the winner, charged to the
  /// requesting device's clock (see CachedPlan::build_ms). 0 under the
  /// default Predict selection mode; included in `modelled_ms`.
  double plan_build_ms = 0.0;
  /// Total modelled device time across all batches (ms) — the serving
  /// cost metric bench_serve_throughput compares across policies. Equals
  /// the sum of the per-device clocks; concurrent-device wall time is the
  /// *busiest* device's clock (the makespan), not this sum.
  double modelled_ms = 0.0;
  /// One entry per configured device, in ServeOptions::devices order.
  std::vector<DeviceServeStats> devices;
  /// Per-class admission counters.
  AdmissionStats admission;
  /// Per-tenant counters, in sorted tenant-name order.
  std::vector<TenantServeStats> tenants;
  /// Per-(graph, tenant) scheduling counters (served/deferred/pending),
  /// in first-submission order.
  std::vector<GraphServeStats> graphs;
};

/// The serving engine. Thread-safe: any thread may register, submit and
/// wait concurrently.
class Engine {
 public:
  explicit Engine(ServeOptions opt = ServeOptions());
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Validate + fingerprint `a` and store it (one copy per distinct
  /// operand; identical re-registrations dedup against a graph still at
  /// its registered state — once `apply_update` has changed that graph,
  /// the same content registers afresh under a new handle). An operand
  /// larger than the per-device capacity (see ShardingOptions) is
  /// row-partitioned across all configured devices; throws
  /// std::runtime_error when it cannot be made to fit (single device, or
  /// a shard still oversized). Throws std::runtime_error on malformed CSR.
  GraphId register_graph(const Csr& a);

  /// The *effective* operand for `id`: the registered CSR with any
  /// pending update overlay folded in (an O(nnz) materialization when an
  /// overlay is resident; the stored CSR otherwise). Throws
  /// std::invalid_argument for an unknown handle.
  std::shared_ptr<const Csr> graph(GraphId id) const;

  /// The current fingerprint of `id`, version included — `key()` of the
  /// returned value is the identity plan-cache keys and batches are
  /// formed under right now (it moves with every update; `GraphId::key`
  /// is the stable handle and never changes). Throws
  /// std::invalid_argument for an unknown handle.
  GraphFingerprint graph_fingerprint(GraphId id) const;

  /// The shard plan for `id`, or nullptr when the graph fits one device
  /// and is served unsharded. Throws std::invalid_argument for an unknown
  /// handle.
  std::shared_ptr<const ShardPlan> shard_plan(GraphId id) const;

  /// Compile `spec` against a registered graph into an execution plan and
  /// store it (content-identical re-registrations dedup, like graphs).
  /// Throws std::invalid_argument for an unknown graph handle, a spec
  /// whose layer shapes do not chain, or a sharded graph (models need the
  /// whole operand resident on one device).
  ModelId register_model(GraphId graph, ModelSpec spec);

  /// The registered model for `id` (plan + parameters + graph). Throws
  /// std::invalid_argument for an unknown handle.
  std::shared_ptr<const RegisteredModel> model(ModelId id) const;

  /// Enqueue C = A(id) (*) b under the given submission options. `b` must
  /// have A.cols rows and be row-major. Throws std::invalid_argument on
  /// shape/layout mismatch, unknown handle or unknown tenant,
  /// std::runtime_error after shutdown. Under load (or past its deadline)
  /// the request may be shed instead of queued: the returned ticket is
  /// then already complete with RequestStatus::Shed (see the file comment
  /// for the full ticket contract).
  Ticket submit(GraphId id, DenseMatrix b, const SubmitOptions& options = {});

  /// Enqueue one whole forward pass of model `id` over `features`
  /// (num_nodes x in_feats, row-major) — one ticket covers every layer,
  /// executed as a fused SpMM→GEMM chain with cross-layer plan-cache and
  /// intermediate-buffer reuse. The request flows through the same
  /// admission control and scheduler as plain submits, costed at the
  /// model's total SpMM width; it never coalesces with other requests.
  /// `options.reduce` is ignored (the model spec owns its reduce). Same
  /// exception/shed contract as `submit`.
  Ticket submit_model(ModelId id, DenseMatrix features,
                      const SubmitOptions& options = {});

  /// Apply one batch of edge mutations to a registered graph, in place:
  /// the batch folds into the graph's delta overlay (see delta.hpp), the
  /// fingerprint version bumps (so the current plan/batch identity rolls
  /// forward), stale plan-cache entries are invalidated *targeted* — only
  /// this graph's keys, only the shards the batch touched when the graph
  /// is sharded — and, once the overlay outgrows
  /// `DeltaOptions::compact_nnz_fraction`, the overlay compacts into a
  /// fresh CSR (sharded graphs then re-plan their row partition). Models
  /// registered over the graph are recompiled against the new state under
  /// their existing ModelId handles. `GraphId` handles remain valid and
  /// stable across any number of updates.
  ///
  /// Concurrency contract: the update serializes with submissions;
  /// requests admitted before it execute the snapshot they captured
  /// (bitwise the pre-update graph), requests admitted after it see the
  /// new state — no request ever observes a half-applied batch, and
  /// pre/post-update requests never coalesce. Throws
  /// std::invalid_argument for an unknown handle or a batch violating the
  /// delta contract (out-of-range endpoint, delete of a missing edge; the
  /// graph is untouched), std::runtime_error after shutdown or when a
  /// compaction outgrows the device (or shard) capacity.
  UpdateReport apply_update(GraphId id, const EdgeBatch& batch);

  /// Launch the worker threads (no-op when already running). Only needed
  /// after constructing with `start_paused`.
  void start();

  /// Stop admission, drain every queued request, join workers. Idempotent;
  /// also runs from the destructor.
  void shutdown();

  /// Consistent snapshot of all counters.
  EngineStats stats() const;

  /// The engine's current virtual clock (ms): the busiest device's
  /// cumulative modelled time. Deadlines are judged against this.
  double virtual_now_ms() const;

  /// The engine's plan cache (hit/miss/eviction/residency introspection).
  const PlanCache& plan_cache() const { return plan_cache_; }

  const ServeOptions& options() const { return opt_; }

 private:
  /// A registered operand. The registry key is the stable handle GraphId
  /// carries (see registry_slot); `fp`/`current_key` roll forward with
  /// updates and are the identity plans and batches form under. Between
  /// compactions `csr` stays the last compacted base and `overlay` holds
  /// the pending touched rows; shard slices (when sharded) are rebuilt
  /// eagerly per update, so they always hold effective content.
  struct RegisteredGraph {
    std::shared_ptr<const Csr> csr;
    std::shared_ptr<const ShardPlan> shards;    // nullptr when unsharded
    std::shared_ptr<const DeltaOverlay> overlay;  // nullptr when clean
    GraphFingerprint fp;
    std::uint64_t current_key = 0;  // fp.key() (cached)
  };

  using Batch = std::vector<std::shared_ptr<detail::RequestState>>;

  /// What one executed batch charges the engine's clocks and counters.
  struct Charge {
    /// One device's share: its modelled execution time (kernel plus halo
    /// gather, or a model's fused pass), the selection cost of its cold
    /// plans, and its plan-cache hits and misses.
    struct Device {
      std::size_t index = 0;
      double modelled_ms = 0.0;
      double build_ms = 0.0;
      std::uint64_t hits = 0;
      std::uint64_t misses = 0;
    };
    std::vector<Device> devices;
    double gather_ms = 0.0;
    std::uint64_t shard_launches = 0;
    double fused_saved_ms = 0.0;
  };

  void worker_loop();
  /// Run one SpMM batch as a list of launches: the whole CSR on
  /// `device_index`, or one launch per shard on its own device.
  void execute_spmm(Batch batch, std::size_t device_index);
  /// Run one model request (a singleton batch) layer by layer.
  void execute_model(Batch batch, std::size_t device_index);
  /// Charge a finished batch to the device clocks, plan-cache, tenant and
  /// deadline counters, and stamp `shared` with the batch's completion
  /// time and plan-cache outcome (a hit when no device missed). Runs
  /// before any ticket is fulfilled, so a ready ticket's batch is in
  /// stats().
  void account(const Batch& batch, const Charge& charge, RequestResult& shared);
  /// Fulfil every ticket of a batch: request i gets its columns of
  /// `c_all` and `shared`'s metadata, with a plain request's modelled time
  /// prorated by its share of the batch width.
  static void fulfill(const Batch& batch, DenseMatrix& c_all,
                      const RequestResult& shared);
  /// Admit or shed a validated request; call under mu_. Returns
  /// ShedReason::None once the request is queued.
  ShedReason admit(const std::shared_ptr<detail::RequestState>& state);
  /// Wake a worker for a queued request, or complete a shed one now.
  Ticket finish_submit(std::shared_ptr<detail::RequestState> state, ShedReason shed);
  /// The registry handle for a freshly fingerprinted operand `fp`: the
  /// first handle from its classic key upwards that is free or holds a
  /// graph still at exactly this registered state. Sets `fp.lineage` to
  /// the handle's offset. Call under mu_.
  std::uint64_t registry_slot(GraphFingerprint& fp) const;
  /// Per-device CSR residency budget (see ShardingOptions).
  std::size_t device_capacity() const;
  /// Tenant index for `name`; throws std::invalid_argument when unknown.
  std::uint32_t tenant_index(const std::string& name) const;
  /// The effective CSR of `g` (base with any overlay folded in). Call
  /// under mu_; O(nnz) when an overlay is resident.
  static std::shared_ptr<const Csr> effective_graph(const RegisteredGraph& g);

  ServeOptions opt_;
  /// Tenant contracts in sorted-name order (index = scheduler tenant id).
  std::vector<std::string> tenant_names_;
  std::vector<TenantConfig> tenant_cfgs_;
  PlanCache plan_cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Scheduler scheduler_;
  AdmissionController admission_;
  /// Admitted-but-not-dispatched requests, keyed by scheduler seq.
  std::map<std::uint64_t, std::shared_ptr<detail::RequestState>> pending_states_;
  std::uint64_t next_seq_ = 0;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool shutting_down_ = false;
  std::size_t next_device_ = 0;
  /// The virtual clock deadlines are judged against: max over the
  /// per-device cumulative modelled times (guarded by mu_).
  double virtual_now_ms_ = 0.0;

  // Graph registry (guarded by mu_).
  std::map<std::uint64_t, RegisteredGraph> graphs_;
  // Model registry, keyed by ModelId (guarded by mu_).
  std::map<std::uint64_t, std::shared_ptr<const RegisteredModel>> models_;

  // Counters (guarded by mu_). stats_.tenants carries the live per-tenant
  // counters (name/share filled at construction).
  EngineStats stats_;
};

}  // namespace gespmm::serve
