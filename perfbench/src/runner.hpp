#pragma once
/// \file runner.hpp
/// The closed-loop load generator: workloads describe their inputs, set-up and one
/// client step; the runner times set-up, runs two client threads against
/// one engine for the measured window, verifies every output and turns
/// the records into the benchmark's end-to-end or per-layer metrics.

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Closed-loop client threads (each keeps one request in flight).
inline constexpr int kClients = 2;

/// Engine state shared by the clients of one run, plus the helpers that
/// serve and record one request.
class EngineRun {
 public:
  EngineRun(gespmm::serve::Engine& eng, Tracer& tracer, bool warmup);

  gespmm::serve::Engine& engine() { return eng_; }
  Tracer& tracer() { return tracer_; }
  Replayer& replayer() { return replay_; }
  bool tracing() const { return tracer_.enabled(); }
  void set_warmup(bool w) { warmup_ = w; }

  /// How a plain SpMM request executes inside the engine, for the
  /// replays: the operand it runs on (or its shards), any overlay patch
  /// merged over the output, and the plan-cache identity of the operand
  /// (0 = the registered graph's key).
  struct Operand {
    const Csr* csr = nullptr;
    const gespmm::serve::ShardPlan* shards = nullptr;
    const Csr* patch = nullptr;
    std::uint64_t plan_key = 0;
  };

  /// Register `a` through the engine (timed; replayed into validate /
  /// fingerprint / shard planning when tracing).
  gespmm::serve::GraphId register_graph(int client, const Csr& a);

  /// What the verifier needs to know about a request's expected output:
  /// its workload-specific key, and the graph versions it may have run on
  /// (`version` is read again after wait; nullptr = static graph).
  struct Check {
    std::uint64_t key = 0;
    std::uint64_t version_lo = 0;
    const std::atomic<std::uint64_t>* version = nullptr;
  };

  /// submit + wait one SpMM and record it. When `block` is set the request
  /// registers that operand first (its registration counts in the
  /// request's latency) and `id` is ignored.
  RequestRecord& spmm(int client, gespmm::serve::GraphId id, const Csr* block,
                      const Operand& op, Family family, DenseMatrix b,
                      ReduceKind reduce, const Check& check);

  /// submit_model + wait one forward pass and record it.
  RequestRecord& model(int client, gespmm::serve::ModelId id, Family family,
                       DenseMatrix features, const Check& check);

  /// apply_update (timed) and record it; the caller replays the overlay
  /// fold and fills `delta_apply_ms` when tracing.
  UpdateRecord& update(int client, gespmm::serve::GraphId id,
                       const gespmm::serve::EdgeBatch& batch,
                       gespmm::serve::UpdateReport* report);

  /// Time spent inside register_graph and, when tracing, in plan_shards
  /// (ms per registration).
  struct Registration {
    double wall_ms = 0.0;
    double shard_plan_ms = 0.0;
  };

  std::vector<RequestRecord>& records(int client) { return records_[client]; }
  std::vector<UpdateRecord>& updates(int client) { return updates_[client]; }
  std::vector<Registration>& registrations(int client) { return registrations_[client]; }

 private:
  RequestRecord& begin(int client, Family family);

  gespmm::serve::Engine& eng_;
  Tracer& tracer_;
  Replayer replay_;
  bool warmup_;
  std::atomic<std::uint64_t> next_request_{1};
  // One slot per client plus one for set-up; each written by one thread.
  std::vector<std::vector<RequestRecord>> records_;
  std::vector<std::vector<UpdateRecord>> updates_;
  std::vector<std::vector<Registration>> registrations_;
};

/// One benchmark workload: inputs generated from the seed at construction.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Engine configuration for this workload's inputs.
  virtual gespmm::serve::ServeOptions options() const = 0;
  /// Register operands and models and warm the engine to steady state
  /// (client slot `kClients` is the set-up lane).
  virtual void setup(EngineRun& s) = 0;
  /// Client `client`'s `i`-th closed-loop operation (one request, and for
  /// the streaming workload sometimes an update after it).
  virtual void step(EngineRun& s, int client, std::uint64_t i) = 0;
  /// Called once after the window: prepare whatever `reference` needs.
  virtual void prepare_references() {}
  /// Digest of the expected output for `check` at graph version `version`.
  /// Thread-safe after prepare_references.
  virtual std::uint64_t reference(std::uint64_t check, std::uint64_t version) const = 0;
  /// Input digests and the first requests of each client: the same seed
  /// must give the same description.
  virtual Json describe() const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        double seconds);
const std::vector<std::string>& workload_names();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace output path (traced runs); empty = none.
  std::string trace_path;
};

/// Result of one run: the contract's final line plus a human report.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Json metrics = Json::object();
  /// Everything else worth printing (counts, extra timings, the ledger).
  Json details = Json::object();
};

RunResult run(const RunOptions& opt);

/// Metric names and units the runner reports, in output order.
struct MetricInfo {
  const char* name;
  const char* unit;
};
const std::vector<MetricInfo>& end_to_end_metrics();
const std::vector<MetricInfo>& per_layer_metrics();

}  // namespace perfbench
