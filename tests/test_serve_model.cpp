/// Fused end-to-end model serving: plan compilation goldens, bitwise
/// identity between the fused forward pass and layer-by-layer composition,
/// the fusion win on modelled time, cross-layer plan-cache reuse, arena
/// recycling, and the admission/scheduler flow of whole-model tickets.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/gespmm.hpp"
#include "serve/engine.hpp"
#include "serve/model_plan.hpp"
#include "test_util.hpp"

namespace gespmm {
namespace {

using serve::Engine;
using serve::GraphId;
using serve::LayerCost;
using serve::LayerStep;
using serve::ModelArena;
using serve::ModelId;
using serve::ModelPlan;
using serve::ModelSpec;
using serve::Priority;
using serve::RequestResult;
using serve::RequestStatus;
using serve::ServedModelKind;
using serve::ServeOptions;
using serve::Ticket;

ServeOptions one_device_opts(bool paused) {
  ServeOptions opt;
  opt.devices = {gpusim::gtx1080ti()};
  opt.num_workers = 1;
  opt.start_paused = paused;
  opt.plan.sample_blocks = 256;
  return opt;
}

DenseMatrix features(index_t rows, index_t cols, std::uint64_t seed) {
  DenseMatrix b(rows, cols);
  kernels::fill_random(b, seed);
  return b;
}

/// The reference composition: per layer, the dense transform on the
/// plan's side of a reference aggregation (spmm_host_reference over the
/// model's graph), sharing gemm/bias_act with the fused executor.
DenseMatrix composed_forward(const serve::RegisteredModel& m, const DenseMatrix& x) {
  DenseMatrix h = x;
  for (std::size_t l = 0; l < m.plan.layers.size(); ++l) {
    const LayerStep& s = m.plan.layers[l];
    const DenseMatrix& w = m.spec.weights[l];
    const DenseMatrix& b = m.spec.bias[l];
    if (s.transform_first) {
      DenseMatrix t(h.rows(), s.out_width);
      serve::gemm(h, w, t);
      DenseMatrix z = testutil::reference_spmm(*m.graph, t, s.reduce);
      serve::bias_act(z, b, s.relu);
      h = std::move(z);
    } else {
      DenseMatrix out(h.rows(), s.out_width);
      serve::dense_transform(testutil::reference_spmm(*m.graph, h, s.reduce), w, b, s.relu,
                             out);
      h = std::move(out);
    }
  }
  return h;
}

TEST(ModelPlanCompile, GcnPlanGolden) {
  const Csr a = sparse::uniform_random(64, 64, 256, 31);
  const ModelSpec spec =
      serve::make_model_spec(ServedModelKind::Gcn, 64, 16, 4, 3);
  const ModelPlan plan = serve::compile_model(7, a, spec);

  ASSERT_EQ(plan.layers.size(), 3u);
  EXPECT_EQ(plan.graph_key, 7u);
  EXPECT_EQ(plan.num_nodes, 64);
  EXPECT_EQ(plan.in_feats, 64);
  EXPECT_EQ(plan.out_feats, 4);

  // Layer 0 narrows 64 -> 16: transform first, aggregate at 16.
  EXPECT_TRUE(plan.layers[0].transform_first);
  EXPECT_EQ(plan.layers[0].spmm_width, 16);
  EXPECT_TRUE(plan.layers[0].relu);
  // Layer 1 is square 16 -> 16: aggregate first.
  EXPECT_FALSE(plan.layers[1].transform_first);
  EXPECT_EQ(plan.layers[1].spmm_width, 16);
  // Last layer narrows 16 -> 4: transform first, no activation.
  EXPECT_TRUE(plan.layers[2].transform_first);
  EXPECT_EQ(plan.layers[2].spmm_width, 4);
  EXPECT_FALSE(plan.layers[2].relu);

  EXPECT_EQ(plan.max_width, 64);
  EXPECT_EQ(plan.total_spmm_width, 16 + 16 + 4);

  // SAGE-GCN always aggregates raw features first.
  const ModelSpec sage =
      serve::make_model_spec(ServedModelKind::SageGcn, 64, 16, 4, 2);
  const ModelPlan sage_plan = serve::compile_model(7, a, sage);
  EXPECT_FALSE(sage_plan.layers[0].transform_first);
  EXPECT_EQ(sage_plan.layers[0].spmm_width, 64);

  // Parameter content keys the identity: same config -> same key,
  // different seed -> different key.
  EXPECT_EQ(serve::compile_model(7, a, spec).key, plan.key);
  const ModelSpec other =
      serve::make_model_spec(ServedModelKind::Gcn, 64, 16, 4, 3, 0xDEAD);
  EXPECT_NE(serve::compile_model(7, a, other).key, plan.key);
}

TEST(ModelPlanCompile, ValidatesShapes) {
  const Csr square = sparse::uniform_random(32, 32, 128, 32);
  const Csr rect = sparse::uniform_random(32, 48, 128, 33);
  ModelSpec spec = serve::make_model_spec(ServedModelKind::Gcn, 16, 8, 4, 2);

  EXPECT_THROW(serve::compile_model(1, rect, spec), std::invalid_argument);

  ModelSpec empty;
  EXPECT_THROW(serve::compile_model(1, square, empty), std::invalid_argument);

  ModelSpec broken_chain = spec;
  broken_chain.weights[1] = DenseMatrix(9, 4);  // layer 0 produces 8
  EXPECT_THROW(serve::compile_model(1, square, broken_chain),
               std::invalid_argument);

  ModelSpec bad_bias = spec;
  bad_bias.bias[0] = DenseMatrix(1, 5);  // layer 0 is 8 wide
  EXPECT_THROW(serve::compile_model(1, square, bad_bias),
               std::invalid_argument);

  ModelSpec missing_bias = spec;
  missing_bias.bias.pop_back();
  EXPECT_THROW(serve::compile_model(1, square, missing_bias),
               std::invalid_argument);
}

TEST(ModelPlanCompile, RunLayerRejectsMisshapedFeatures) {
  // run_layer checks `out` itself; a mis-shaped h reaches the host SpMM,
  // whose shape checks must throw before it touches memory out of bounds.
  const Csr a = sparse::uniform_random(32, 32, 128, 34);
  const DenseMatrix w(8, 4);
  const DenseMatrix bias(1, 4);
  DenseMatrix out(32, 4);
  ModelArena arena;

  // Aggregate first: an h wider than in_width would overrun the arena's
  // num_nodes x in_width intermediate.
  LayerStep aggregate;
  aggregate.in_width = 8;
  aggregate.out_width = 4;
  aggregate.spmm_width = 8;
  EXPECT_THROW(serve::run_layer(a, aggregate, features(32, 12, 1), w, bias, out, arena),
               std::invalid_argument);

  // Transform first: an h with fewer rows than the graph has columns would
  // make the aggregation gather past the end of H·W.
  LayerStep transform = aggregate;
  transform.transform_first = true;
  transform.spmm_width = 4;
  EXPECT_THROW(serve::run_layer(a, transform, features(20, 8, 2), w, bias, out, arena),
               std::invalid_argument);
}

TEST(ModelPlanCost, FusedStrictlyBeatsComposedEverywhere) {
  // Property over layer shapes and both devices: composed decomposes as
  // spmm + gemm + epilogue exactly, and the fused price is positive and
  // strictly below composed (launch + intermediate round trip + epilogue
  // can only save time).
  for (const auto& dev : {gpusim::gtx1080ti(), gpusim::rtx2080()}) {
    const gnn::DeviceCost cost(dev);
    for (const index_t nodes : {512, 19717}) {
      for (const index_t in : {4, 32, 500}) {
        for (const index_t out : {4, 64}) {
          for (const bool relu : {false, true}) {
            LayerStep s;
            s.in_width = in;
            s.out_width = out;
            s.transform_first = in > out;
            s.spmm_width = s.transform_first ? out : in;
            s.relu = relu;
            const double spmm_ms = 0.05 + 1e-5 * nodes * s.spmm_width;
            const LayerCost c = serve::price_layer(s, nodes, spmm_ms, cost);
            EXPECT_DOUBLE_EQ(c.composed_ms,
                             c.spmm_ms + c.gemm_ms + c.epilogue_ms);
            EXPECT_GT(c.fused_ms, 0.0);
            EXPECT_LT(c.fused_ms, c.composed_ms);
            EXPECT_GE(c.fused_ms, 0.5 * std::max(c.spmm_ms, c.gemm_ms));
          }
        }
      }
    }
  }
}

TEST(ModelArena, RecyclesExactShapes) {
  ModelArena arena;
  DenseMatrix a = arena.take(8, 4);
  EXPECT_EQ(arena.reuse_hits(), 0u);
  a.at(7, 3) = 42.0f;
  arena.put(std::move(a));
  EXPECT_EQ(arena.resident(), 1u);

  DenseMatrix b = arena.take(8, 4);  // exact shape: recycled
  EXPECT_EQ(arena.reuse_hits(), 1u);
  EXPECT_EQ(arena.resident(), 0u);
  EXPECT_EQ(b.at(7, 3), 42.0f);  // as-is — consumers overwrite

  DenseMatrix c = arena.take(8, 5);  // different shape: fresh
  EXPECT_EQ(arena.reuse_hits(), 1u);
  arena.put(std::move(b));
  arena.put(std::move(c));
  EXPECT_EQ(arena.resident(), 2u);
}

TEST(ModelServe, FusedMatchesComposedBitwise) {
  // The acceptance property: submit_model's fused forward pass must be
  // bitwise identical to layer-by-layer composition from the reference
  // aggregation plus the shared host-side dense transforms — while
  // modelling strictly
  // less device time. Covers both model kinds and both semirings.
  struct Case {
    ServedModelKind kind;
    ReduceKind reduce;
    int layers;
  };
  const Case cases[] = {
      {ServedModelKind::Gcn, ReduceKind::Sum, 2},
      {ServedModelKind::Gcn, ReduceKind::Sum, 3},
      {ServedModelKind::SageGcn, ReduceKind::Mean, 2},
  };
  const Csr a = sparse::uniform_random(96, 96, 768, 77);
  for (const Case& tc : cases) {
    Engine engine(one_device_opts(/*paused=*/false));
    const GraphId gid = engine.register_graph(a);
    ModelSpec spec = serve::make_model_spec(tc.kind, 24, 16, 5, tc.layers);
    spec.reduce = tc.reduce;
    const ModelId mid = engine.register_model(gid, spec);
    const auto model = engine.model(mid);

    const DenseMatrix x = features(96, 24, 0xFEED);
    const Ticket fused_tk = engine.submit_model(mid, DenseMatrix(x));
    const RequestResult& fused = fused_tk.wait();
    ASSERT_EQ(fused.status, RequestStatus::Ok);
    EXPECT_EQ(fused.model_layers, tc.layers);
    EXPECT_EQ(fused.batch_size, 1);
    ASSERT_EQ(fused.c.rows(), 96);
    ASSERT_EQ(fused.c.cols(), 5);

    const DenseMatrix composed = composed_forward(*model, x);
    EXPECT_TRUE(testutil::bitwise_equal(fused.c, composed))
        << "fused pass diverged for kind="
        << serve::served_model_kind_name(tc.kind);

    EXPECT_GT(fused.modelled_ms, 0.0);
    EXPECT_LT(fused.modelled_ms, fused.composed_ms);
  }
}

TEST(ModelServe, CrossLayerAndCrossRequestPlanReuse) {
  // Layers share cached plans across the whole pass: a 4-layer 32-wide
  // GCN aggregates at widths (32, 32, 32, 8), and width quantization
  // (width_quantum = 32, rounded up) folds the 8-wide output layer into
  // the same 32-bucket — one build serves every layer, and repeated
  // passes hit everywhere.
  const Csr a = sparse::uniform_random(128, 128, 1024, 5);
  Engine engine(one_device_opts(/*paused=*/false));
  const GraphId gid = engine.register_graph(a);
  const ModelSpec spec =
      serve::make_model_spec(ServedModelKind::Gcn, 32, 32, 8, 4);
  const ModelId mid = engine.register_model(gid, spec);

  const Ticket first_tk = engine.submit_model(mid, features(128, 32, 1));
  const RequestResult& first = first_tk.wait();
  ASSERT_EQ(first.status, RequestStatus::Ok);
  // All four layers' widths (32, 32, 32, 8) quantize into the 32-wide
  // plan bucket: one miss builds it, three layer lookups hit.
  EXPECT_EQ(engine.plan_cache().stats().misses, 1u);
  EXPECT_EQ(engine.plan_cache().stats().hits, 3u);
  EXPECT_FALSE(first.plan_cache_hit);  // the pass contained the miss

  const Ticket second_tk = engine.submit_model(mid, features(128, 32, 2));
  const RequestResult& second = second_tk.wait();
  EXPECT_EQ(engine.plan_cache().stats().misses, 1u);
  EXPECT_EQ(engine.plan_cache().stats().hits, 7u);
  EXPECT_TRUE(second.plan_cache_hit);

  // Identical inputs -> identical outputs and identical fused price
  // (deterministic replay).
  const Ticket replay_tk = engine.submit_model(mid, features(128, 32, 1));
  const RequestResult& replay = replay_tk.wait();
  EXPECT_TRUE(testutil::bitwise_equal(replay.c, first.c));
  EXPECT_DOUBLE_EQ(replay.modelled_ms, first.modelled_ms);

  const auto st = engine.stats();
  EXPECT_EQ(st.model_requests, 3u);
  EXPECT_GT(st.fused_saved_ms, 0.0);
}

TEST(ModelServe, RegisterDedupsIdenticalModels) {
  const Csr a = sparse::uniform_random(64, 64, 256, 9);
  Engine engine(one_device_opts(/*paused=*/true));
  const GraphId gid = engine.register_graph(a);
  const ModelSpec spec =
      serve::make_model_spec(ServedModelKind::Gcn, 16, 8, 4, 2);
  const ModelId m1 = engine.register_model(gid, spec);
  const ModelId m2 = engine.register_model(gid, spec);
  EXPECT_EQ(m1.key, m2.key);
  const ModelId m3 = engine.register_model(
      gid, serve::make_model_spec(ServedModelKind::Gcn, 16, 8, 4, 2, 0xD1CE));
  EXPECT_NE(m3.key, m1.key);

  const auto st = engine.stats();
  EXPECT_EQ(st.models_registered, 2u);
  EXPECT_EQ(st.model_register_dedup_hits, 1u);

  EXPECT_THROW(engine.model(ModelId{12345}), std::invalid_argument);
  EXPECT_THROW(engine.submit_model(ModelId{12345}, features(64, 16, 1)),
               std::invalid_argument);
  EXPECT_THROW(engine.submit_model(m1, features(63, 16, 1)),
               std::invalid_argument);
  EXPECT_THROW(engine.submit_model(m1, features(64, 15, 1)),
               std::invalid_argument);
  engine.shutdown();
}

TEST(ModelServe, ModelTicketsFlowThroughSchedulerAloneAndShedUnderLoad) {
  const Csr a = sparse::uniform_random(64, 64, 512, 13);
  {
    // Paused engine: fix the batch composition. Plain requests around a
    // model ticket coalesce with each other but never with the model,
    // which ships as its own singleton batch.
    Engine engine(one_device_opts(/*paused=*/true));
    const GraphId gid = engine.register_graph(a);
    const ModelId mid = engine.register_model(
        gid, serve::make_model_spec(ServedModelKind::Gcn, 8, 8, 4, 2));

    Ticket p0 = engine.submit(gid, features(64, 8, 1));
    Ticket p1 = engine.submit(gid, features(64, 8, 2));
    Ticket m = engine.submit_model(mid, features(64, 8, 3));
    Ticket p2 = engine.submit(gid, features(64, 8, 4));
    engine.start();

    EXPECT_EQ(p0.wait().batch_size, 3);  // p0 + p1 + p2 coalesce past m
    EXPECT_EQ(p2.wait().batch_size, 3);
    EXPECT_EQ(m.wait().batch_size, 1);
    EXPECT_EQ(m.wait().model_layers, 2);
    engine.shutdown();
  }
  {
    // Admission applies to model tickets exactly like plain ones: with
    // the queue hard-full even interactive work is shed, completing the
    // ticket immediately with an empty result.
    ServeOptions opt = one_device_opts(/*paused=*/true);
    opt.admission.max_pending = 2;
    Engine engine(opt);
    const GraphId gid = engine.register_graph(a);
    const ModelId mid = engine.register_model(
        gid, serve::make_model_spec(ServedModelKind::Gcn, 8, 8, 4, 2));
    Ticket p0 = engine.submit(gid, features(64, 8, 1));
    Ticket p1 = engine.submit(gid, features(64, 8, 2));
    Ticket m = engine.submit_model(mid, features(64, 8, 3));
    EXPECT_TRUE(m.ready());
    EXPECT_EQ(m.wait().status, RequestStatus::Shed);
    EXPECT_EQ(m.wait().model_layers, 0);
    EXPECT_EQ(m.wait().c.rows(), 0);
    engine.shutdown();
    EXPECT_EQ(p0.wait().status, RequestStatus::Ok);
    EXPECT_EQ(p1.wait().status, RequestStatus::Ok);
  }
}

}  // namespace
}  // namespace gespmm
