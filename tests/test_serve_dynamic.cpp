/// Streaming graph updates: delta-overlay semantics, fingerprint
/// versioning, targeted plan invalidation, compaction, sharded
/// touched-slice re-planning and model rebinding — the dynamic-graph
/// contract of Engine::apply_update. The load-bearing property throughout:
/// update-in-place outputs are bitwise identical to the sequential
/// reference over the materialized (compacted) CSR, which is what
/// re-registering it from scratch serves.

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <utility>

#include "serve/delta.hpp"
#include "serve/engine.hpp"
#include "test_util.hpp"

namespace gespmm {
namespace {

using serve::DeltaOverlay;
using serve::EdgeBatch;
using serve::Engine;
using serve::GraphId;
using serve::ServeOptions;
using serve::Ticket;
using serve::UpdateReport;
using testutil::bitwise_equal;
using testutil::reference_spmm;

ServeOptions dynamic_opts() {
  ServeOptions opt;
  opt.devices = {gpusim::gtx1080ti()};
  opt.num_workers = 1;
  opt.start_paused = true;
  opt.plan.sample_blocks = 128;
  return opt;
}

DenseMatrix features(index_t rows, index_t cols, std::uint64_t seed) {
  DenseMatrix b(rows, cols);
  kernels::fill_random(b, seed);
  return b;
}

/// Independent delta reference: (row, col) -> value map of a CSR with a
/// sequence of batches applied host-side, used to cross-check effective
/// nnz and content without trusting DeltaOverlay's own arithmetic.
std::map<std::pair<index_t, index_t>, value_t> edge_map(const Csr& a) {
  std::map<std::pair<index_t, index_t>, value_t> edges;
  for (index_t i = 0; i < a.rows; ++i) {
    for (index_t p = a.rowptr[static_cast<std::size_t>(i)];
         p < a.rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      edges[{i, a.colind[static_cast<std::size_t>(p)]}] =
          a.val[static_cast<std::size_t>(p)];
    }
  }
  return edges;
}

void apply_reference(std::map<std::pair<index_t, index_t>, value_t>& edges,
                     const EdgeBatch& batch) {
  for (const auto& e : batch.inserts) edges[{e.row, e.col}] = e.val;
  for (const auto& d : batch.deletes) {
    ASSERT_EQ(edges.erase({d.row, d.col}), 1u)
        << "reference delete of a missing edge at (" << d.row << ", "
        << d.col << ")";
  }
}

Csr reference_csr(const std::map<std::pair<index_t, index_t>, value_t>& edges,
                  index_t rows, index_t cols) {
  std::vector<index_t> r, c;
  std::vector<value_t> v;
  for (const auto& [rc, val] : edges) {
    r.push_back(rc.first);
    c.push_back(rc.second);
    v.push_back(val);
  }
  return sparse::csr_from_triplets(rows, cols, r, c, v);
}

// ---------------------------------------------------------------------------
// DeltaOverlay unit semantics

TEST(DeltaOverlay, UpsertDeleteAndMaterializeGolden) {
  // Base: 3x4, rows sorted.
  //   row 0: (1, 1.0) (3, 2.0)
  //   row 1: (0, 3.0)
  //   row 2: empty
  std::vector<index_t> r{0, 0, 1}, c{1, 3, 0};
  std::vector<value_t> v{1.0f, 2.0f, 3.0f};
  const Csr base = sparse::csr_from_triplets(3, 4, r, c, v);

  EdgeBatch batch;
  batch.inserts = {{0, 2, 5.0f},   // new edge, lands between existing cols
                   {0, 3, 7.0f},   // upsert: overwrites the 2.0
                   {2, 1, 9.0f}};  // first edge of an empty row
  batch.deletes = {{0, 1}};        // delete an original edge
  const auto ov = DeltaOverlay::apply(base, nullptr, batch);

  ASSERT_EQ(ov->rows(), (std::vector<index_t>{0, 2}));
  const Csr& patch = ov->patch();
  ASSERT_EQ(patch.rows, 2);
  EXPECT_EQ(patch.cols, 4);
  // Row 0 effective: (2, 5.0) (3, 7.0) — canonical ascending order.
  EXPECT_EQ(patch.colind, (std::vector<index_t>{2, 3, 1}));
  EXPECT_EQ(patch.val, (std::vector<value_t>{5.0f, 7.0f, 9.0f}));
  EXPECT_EQ(ov->overlay_nnz(), 3);
  EXPECT_EQ(ov->effective_nnz(base), 4);  // 3 base - 2 replaced + 3 patch

  const Csr eff = ov->materialize(base);
  EXPECT_EQ(eff.rows, 3);
  EXPECT_EQ(eff.nnz(), 4);
  EXPECT_EQ(eff.colind, (std::vector<index_t>{2, 3, 0, 1}));
  EXPECT_EQ(eff.val, (std::vector<value_t>{5.0f, 7.0f, 3.0f, 9.0f}));
  // Untouched row 1 is copied verbatim.
  EXPECT_EQ(eff.row_nnz(1), base.row_nnz(1));

  // Row-range slices rebase like GraphShard::csr.
  const Csr tail = ov->materialize_rows(base, 1, 3);
  EXPECT_EQ(tail.rows, 2);
  EXPECT_EQ(tail.colind, (std::vector<index_t>{0, 1}));
  EXPECT_EQ(tail.rowptr, (std::vector<index_t>{0, 1, 2}));

  EXPECT_TRUE(ov->touches(0, 1));
  EXPECT_FALSE(ov->touches(1, 2));
  EXPECT_TRUE(ov->touches(1, 3));
}

TEST(DeltaOverlay, ContractViolationsThrowWithoutSideEffects) {
  const Csr base = testutil::zoo_empty_rows();

  EdgeBatch oob_row;
  oob_row.inserts = {{base.rows, 0, 1.0f}};
  EXPECT_THROW(DeltaOverlay::apply(base, nullptr, oob_row),
               std::invalid_argument);

  EdgeBatch oob_col;
  oob_col.deletes = {{0, base.cols}};
  EXPECT_THROW(DeltaOverlay::apply(base, nullptr, oob_col),
               std::invalid_argument);

  // Deleting an edge that does not exist (row 0 is empty) must throw, not
  // silently no-op.
  EdgeBatch missing;
  missing.deletes = {{0, 1}};
  EXPECT_THROW(DeltaOverlay::apply(base, nullptr, missing),
               std::invalid_argument);

  // ...but deleting an edge inserted earlier in the same batch is fine
  // (inserts apply first).
  EdgeBatch insert_then_delete;
  insert_then_delete.inserts = {{0, 1, 4.0f}};
  insert_then_delete.deletes = {{0, 1}};
  const auto ov = DeltaOverlay::apply(base, nullptr, insert_then_delete);
  EXPECT_EQ(ov->rows(), (std::vector<index_t>{0}));
  EXPECT_EQ(ov->overlay_nnz(), 0);  // the row is touched but empty now
}

TEST(DeltaOverlay, FoldsAcrossBatchesAndCanonicalizesOnce) {
  const Csr base = testutil::zoo_uniform();

  EdgeBatch b1;
  b1.inserts = {{10, 3, 1.5f}, {20, 7, 2.5f}};
  const auto ov1 = DeltaOverlay::apply(base, nullptr, b1);

  EdgeBatch b2;
  b2.inserts = {{10, 3, 9.5f}, {30, 0, 3.5f}};  // upsert row 10 again
  const auto ov2 = DeltaOverlay::apply(base, ov1.get(), b2);

  EXPECT_EQ(ov2->rows(), (std::vector<index_t>{10, 20, 30}));

  // The folded overlay materializes exactly what applying both batches to
  // a host-side copy would produce.
  const Csr eff = ov2->materialize(base);
  eff.validate();
  EXPECT_TRUE(eff.rows_sorted());
  EXPECT_EQ(ov2->effective_nnz(base), eff.nnz());

  auto edges = edge_map(base);
  apply_reference(edges, b1);
  apply_reference(edges, b2);
  EXPECT_EQ(eff, reference_csr(edges, base.rows, base.cols));
}

// ---------------------------------------------------------------------------
// Fingerprint versioning

TEST(FingerprintVersion, VersionZeroKeyIsTheClassicKey) {
  const Csr a = testutil::zoo_uniform();
  serve::GraphFingerprint fp = serve::fingerprint(a);
  EXPECT_EQ(fp.version, 0u);
  const std::uint64_t classic = fp.key();

  // Bumping the version changes the key; distinct versions get distinct
  // keys; resetting recovers the classic key exactly.
  fp.version = 1;
  const std::uint64_t v1 = fp.key();
  fp.version = 2;
  const std::uint64_t v2 = fp.key();
  EXPECT_NE(classic, v1);
  EXPECT_NE(v1, v2);
  EXPECT_NE(classic, v2);
  fp.version = 0;
  EXPECT_EQ(fp.key(), classic);

  // The lineage salt is domain-separated from the version: lineage 1 at
  // version 0 is neither lineage 0 at version 1 nor lineage 1 at version 1.
  fp.lineage = 1;
  const std::uint64_t l1 = fp.key();
  EXPECT_NE(l1, classic);
  EXPECT_NE(l1, v1);
  fp.version = 1;
  EXPECT_NE(fp.key(), v1);
  EXPECT_NE(fp.key(), l1);
  fp.lineage = 0;
  fp.version = 0;

  EXPECT_EQ(serve::fingerprint(a).str().find("v="), std::string::npos);
  EXPECT_EQ(serve::fingerprint(a).str().find("lineage="), std::string::npos);
  fp.version = 3;
  EXPECT_NE(fp.str().find("v=3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Targeted plan invalidation

TEST(PlanCacheInvalidate, ErasesOnlyTheStaleGraphRespectingPins) {
  const Csr a = sparse::uniform_random(64, 64, 400, 805);
  const auto dev = gpusim::gtx1080ti();
  serve::PlanCacheOptions opt;
  opt.sample_blocks = 64;
  serve::PlanCache cache(opt);

  const auto key = [](std::uint64_t graph, index_t n) {
    return serve::PlanKey{graph, "gtx1080ti", n, kernels::ReduceKind::Sum};
  };
  cache.acquire(key(1, 32), a, dev);
  cache.acquire(key(1, 64), a, dev);
  cache.acquire(key(2, 32), a, dev);
  serve::PlanLease pinned = cache.acquire(key(1, 96), a, dev);
  ASSERT_EQ(cache.stats().size, 4u);

  // Only graph 1's unpinned entries go; graph 2 and the pinned plan stay.
  EXPECT_EQ(cache.invalidate(1), 2u);
  EXPECT_EQ(cache.stats().size, 2u);
  const auto resident = cache.resident_keys();
  ASSERT_EQ(resident.size(), 2u);
  EXPECT_EQ(resident[0].graph, 2u);
  EXPECT_EQ(resident[1].graph, 1u);  // the pinned 96-wide plan
  EXPECT_EQ(resident[1].n, 96);

  auto st = cache.stats();
  EXPECT_EQ(st.invalidations, 2u);
  EXPECT_EQ(st.evictions, 0u);  // invalidation is not LRU pressure
  EXPECT_EQ(st.pinned, 1u);

  // Once released, a second invalidation can take the survivor.
  pinned.release();
  EXPECT_EQ(cache.invalidate(1), 1u);
  EXPECT_EQ(cache.stats().invalidations, 3u);
  EXPECT_EQ(cache.invalidate(1), 0u);  // idempotent on an empty graph
  ASSERT_EQ(cache.resident_keys().size(), 1u);
  EXPECT_EQ(cache.resident_keys()[0].graph, 2u);
}

// ---------------------------------------------------------------------------
// Engine: unsharded update path

TEST(EngineDynamic, UpdateInPlaceIsBitwiseIdenticalToReregistration) {
  const Csr base = testutil::zoo_uniform();
  const DenseMatrix b = features(base.cols, 32, 41);

  Engine eng(dynamic_opts());
  const GraphId id = eng.register_graph(base);
  eng.start();
  EXPECT_TRUE(bitwise_equal(eng.submit(id, b).wait().c, reference_spmm(base, b)));

  EdgeBatch batch;
  batch.inserts = {{0, 5, 2.0f}, {17, 3, -1.0f}, {199, 0, 0.25f}};
  batch.deletes = {{0, static_cast<index_t>(base.colind[0])}};
  const UpdateReport rep = eng.apply_update(id, batch);
  EXPECT_EQ(rep.version, 1u);
  EXPECT_FALSE(rep.compacted);
  EXPECT_EQ(rep.shards_replanned, 0);
  EXPECT_GT(rep.overlay_nnz, 0);

  // The handle is stable, the effective graph is served, and the output
  // is bitwise what re-registering the materialized CSR would serve. The
  // effective CSR must equal an independently maintained host-side copy.
  auto edges = edge_map(base);
  apply_reference(edges, batch);
  const std::shared_ptr<const Csr> eff = eng.graph(id);
  EXPECT_EQ(*eff, reference_csr(edges, base.rows, base.cols));
  const DenseMatrix got = eng.submit(id, b).wait().c;
  EXPECT_TRUE(bitwise_equal(got, reference_spmm(*eff, b)));

  // Versioned identity: the fingerprint bumped, plan keys rolled forward,
  // and the old generation's plan was erased targeted.
  EXPECT_EQ(eng.graph_fingerprint(id).version, 1u);
  EXPECT_NE(eng.graph_fingerprint(id).key(), id.key);
  const auto st = eng.stats();
  EXPECT_EQ(st.graph_updates, 1u);
  EXPECT_EQ(st.graph_compactions, 0u);
  EXPECT_EQ(st.plan_invalidations, rep.plans_invalidated);
  EXPECT_EQ(rep.plans_invalidated, 1u);
  eng.shutdown();
}

TEST(EngineDynamic, NonSumReductionsRideTheOverlayToo) {
  // Max/Mean matter because overlay rows are complete replacements: a
  // delete must be able to *lower* a row's max.
  std::vector<index_t> r{0, 0, 1}, c{0, 1, 1};
  std::vector<value_t> v{5.0f, 1.0f, 2.0f};
  const Csr base = sparse::csr_from_triplets(2, 2, r, c, v);

  Engine eng(dynamic_opts());
  const GraphId id = eng.register_graph(base);
  EdgeBatch batch;
  batch.deletes = {{0, 0}};  // row 0 keeps only the 1.0 edge
  eng.apply_update(id, batch);
  eng.start();

  const DenseMatrix b = features(2, 8, 42);
  Ticket t = eng.submit(id, b, {.reduce = kernels::ReduceKind::Max});
  eng.shutdown();

  const std::shared_ptr<const Csr> eff = eng.graph(id);
  EXPECT_TRUE(bitwise_equal(t.wait().c, reference_spmm(*eff, b, kernels::ReduceKind::Max)));
}

TEST(EngineDynamic, CompactionFoldsOverlayAndRefreshesStructure) {
  const Csr base = testutil::zoo_uniform();

  EdgeBatch small;
  small.inserts = {{3, 3, 1.0f}};
  EdgeBatch big;
  for (index_t i = 0; i < 12; ++i) big.inserts.push_back({i, 9, 0.5f});

  // An overlay carries the *full* canonical contents of every touched
  // row, so place the compaction bar deterministically between the first
  // overlay (row 3 only) and the second (rows 0..11): threshold =
  // first-overlay nnz + 1/2.
  const index_t first_overlay_nnz =
      DeltaOverlay::apply(base, nullptr, small)->overlay_nnz();
  Engine eng([&] {
    ServeOptions opt = dynamic_opts();
    opt.delta.compact_nnz_fraction =
        (static_cast<double>(first_overlay_nnz) + 0.5) /
        static_cast<double>(base.nnz());
    return opt;
  }());
  const GraphId id = eng.register_graph(base);

  const UpdateReport r1 = eng.apply_update(id, small);
  EXPECT_FALSE(r1.compacted);
  EXPECT_EQ(r1.overlay_nnz, first_overlay_nnz);

  const UpdateReport r2 = eng.apply_update(id, big);
  EXPECT_TRUE(r2.compacted);
  EXPECT_EQ(r2.version, 2u);
  EXPECT_EQ(r2.overlay_nnz, 0);

  // Post-compaction: the structural fingerprint refreshed, the version
  // survived the fold, the compacted CSR equals the independent host-side
  // reference, and serving matches re-registration bitwise.
  auto edges = edge_map(base);
  apply_reference(edges, small);
  apply_reference(edges, big);
  const serve::GraphFingerprint fp = eng.graph_fingerprint(id);
  EXPECT_EQ(fp.version, 2u);
  const std::shared_ptr<const Csr> eff = eng.graph(id);
  EXPECT_EQ(*eff, reference_csr(edges, base.rows, base.cols));
  EXPECT_EQ(fp.nnz, eff->nnz());

  eng.start();
  const DenseMatrix b = features(base.cols, 16, 43);
  const DenseMatrix got = eng.submit(id, b).wait().c;
  eng.shutdown();
  EXPECT_TRUE(bitwise_equal(got, reference_spmm(*eff, b)));
  EXPECT_EQ(eng.stats().graph_compactions, 1u);
}

TEST(EngineDynamic, PrePostUpdateRequestsNeverCoalesce) {
  // Both requests sit queued across an update on a paused engine; they
  // must execute as separate batches (different graph versions), each
  // against the snapshot it captured.
  const Csr base = testutil::zoo_uniform();
  Engine eng(dynamic_opts());
  const GraphId id = eng.register_graph(base);
  const DenseMatrix b = features(base.cols, 8, 44);

  Ticket pre = eng.submit(id, b);
  EdgeBatch batch;
  batch.inserts = {{0, 0, 3.0f}};
  eng.apply_update(id, batch);
  Ticket post = eng.submit(id, b);
  eng.shutdown();  // drains the paused queue

  EXPECT_EQ(pre.wait().batch_size, 1);
  EXPECT_EQ(post.wait().batch_size, 1);
  EXPECT_TRUE(bitwise_equal(pre.wait().c, reference_spmm(base, b)));
  EXPECT_TRUE(bitwise_equal(post.wait().c, reference_spmm(*eng.graph(id), b)));
  EXPECT_FALSE(bitwise_equal(pre.wait().c, post.wait().c))
      << "the update must actually change row 0's output";
}

TEST(EngineDynamic, CoalescedOverlayBatchesMatchReferenceBitwise) {
  // Coalesced Sum and Max batches over a live overlay: the patch rows'
  // outputs overwrite the base kernel's rows by row copy before the
  // per-request split, at odd widths that end each batch in a partial
  // column tile of the host kernel.
  const Csr base = testutil::zoo_uniform();
  Engine eng(dynamic_opts());
  const GraphId id = eng.register_graph(base);
  EdgeBatch batch;
  batch.inserts = {{0, 5, 2.0f}, {17, 3, -1.0f}, {199, 0, 0.25f}};
  batch.deletes = {{0, static_cast<index_t>(base.colind[0])}};
  const UpdateReport rep = eng.apply_update(id, batch);
  ASSERT_FALSE(rep.compacted);
  ASSERT_GT(rep.overlay_nnz, 0);
  const std::shared_ptr<const Csr> eff = eng.graph(id);

  struct Request {
    DenseMatrix b;
    kernels::ReduceKind reduce;
    Ticket ticket;
  };
  std::vector<Request> reqs;
  for (const kernels::ReduceKind reduce : {kernels::ReduceKind::Sum, kernels::ReduceKind::Max}) {
    for (const index_t n : {5, 7, 11}) {
      DenseMatrix b = features(base.cols, n, 60 + static_cast<std::uint64_t>(n));
      Ticket t = eng.submit(id, b, {.reduce = reduce});
      reqs.push_back({std::move(b), reduce, std::move(t)});
    }
  }
  eng.shutdown();

  for (const Request& r : reqs) {
    const auto& res = r.ticket.wait();
    EXPECT_GT(res.batch_size, 1);
    EXPECT_TRUE(bitwise_equal(res.c, reference_spmm(*eff, r.b, r.reduce)))
        << kernels::reduce_kind_name(r.reduce) << " n=" << r.b.cols();
  }
}

// ---------------------------------------------------------------------------
// Engine: sharded update path

ServeOptions sharded_opts() {
  ServeOptions opt;
  opt.devices = {gpusim::gtx1080ti(), gpusim::rtx2080()};
  opt.num_workers = 1;
  opt.start_paused = true;
  opt.plan.sample_blocks = 128;
  // zoo_uniform's CSR is ~16.8 KB; a 10 KB budget forces a 2-way shard
  // with headroom for the update batches the tests below apply.
  opt.sharding.device_capacity_bytes = 10000;
  return opt;
}

TEST(EngineDynamic, ShardedUpdateReplansOnlyTouchedShards) {
  const Csr base = testutil::zoo_uniform();
  Engine eng(sharded_opts());
  const GraphId id = eng.register_graph(base);
  const auto plan0 = eng.shard_plan(id);
  ASSERT_NE(plan0, nullptr);
  ASSERT_EQ(plan0->num_shards(), 2);
  const std::uint64_t shard0_key = plan0->shards[0].key;
  const std::uint64_t shard1_key = plan0->shards[1].key;

  const DenseMatrix b = features(base.cols, 16, 45);
  eng.start();
  EXPECT_EQ(eng.submit(id, b).wait().shards, 2);  // both shard plans built

  // Touch only shard 1's row range.
  const index_t row = plan0->shards[1].row_begin;
  EdgeBatch batch;
  batch.inserts = {{row, 7, 1.25f}};
  const UpdateReport rep = eng.apply_update(id, batch);
  EXPECT_EQ(rep.shards_replanned, 1);
  EXPECT_FALSE(rep.compacted);

  const auto plan1 = eng.shard_plan(id);
  EXPECT_EQ(plan1->shards[0].key, shard0_key)
      << "untouched shard keeps its content-addressed identity";
  EXPECT_NE(plan1->shards[1].key, shard1_key);
  EXPECT_EQ(plan1->shards[0].row_begin, plan0->shards[0].row_begin)
      << "partition boundaries stay fixed between compactions";
  EXPECT_EQ(plan1->shards[1].row_end, plan0->shards[1].row_end);

  // The next submit re-plans only the touched shard: one miss, one hit.
  const auto before = eng.plan_cache().stats();
  Ticket probe = eng.submit(id, b);  // named: the ticket owns the result
  const serve::RequestResult& res = probe.wait();
  const auto after = eng.plan_cache().stats();
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses - before.misses, 1u);

  // Bitwise contract against the reference over the effective CSR.
  EXPECT_TRUE(bitwise_equal(res.c, reference_spmm(*eng.graph(id), b)));
  eng.shutdown();
}

TEST(EngineDynamic, ShardedCompactionRepartitionsEverything) {
  const Csr base = testutil::zoo_uniform();
  Engine eng([] {
    ServeOptions opt = sharded_opts();
    opt.delta.compact_nnz_fraction = 0.001;
    return opt;
  }());
  const GraphId id = eng.register_graph(base);

  EdgeBatch batch;
  for (index_t i = 0; i < 12; ++i) batch.inserts.push_back({i, 11, 2.0f});
  const UpdateReport rep = eng.apply_update(id, batch);
  EXPECT_TRUE(rep.compacted);
  EXPECT_EQ(rep.shards_replanned, 2);

  eng.start();
  const DenseMatrix b = features(base.cols, 8, 46);
  const DenseMatrix got = eng.submit(id, b).wait().c;
  eng.shutdown();

  EXPECT_TRUE(bitwise_equal(got, reference_spmm(*eng.graph(id), b)));
}

// ---------------------------------------------------------------------------
// Engine: model rebinding and in-flight snapshot isolation

TEST(EngineDynamic, ReregisteringOriginalContentAfterAnUpdateServesTheOriginal) {
  // After apply_update the graph under A's handle serves A'. Registering A
  // again must not dedup onto it: A gets a fresh handle that serves A * B,
  // and later registrations of A find that handle. Once the new handle is
  // updated too, both graphs sit at version 1 of the same registered
  // content, yet their requests must still never share a batch.
  for (const bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "unsharded");
    const Csr base = testutil::zoo_uniform();
    Engine eng(sharded ? sharded_opts() : dynamic_opts());
    const GraphId id = eng.register_graph(base);
    EdgeBatch batch;
    batch.inserts = {{0, 5, 2.0f}, {150, 3, -1.0f}};
    eng.apply_update(id, batch);

    const GraphId again = eng.register_graph(base);
    EXPECT_NE(again.key, id.key);
    EXPECT_EQ(eng.register_graph(base).key, again.key);
    EXPECT_EQ(*eng.graph(again), base);
    EXPECT_EQ(eng.shard_plan(again) != nullptr, sharded);
    const auto st = eng.stats();
    EXPECT_EQ(st.graphs_registered, 2u);
    EXPECT_EQ(st.register_dedup_hits, 1u);

    const DenseMatrix b = features(base.cols, 24, 61);
    Ticket original = eng.submit(again, b);
    EdgeBatch other;
    other.inserts = {{1, 7, 3.0f}, {151, 4, -2.0f}};
    eng.apply_update(again, other);
    EXPECT_EQ(eng.graph_fingerprint(again).version, 1u);
    EXPECT_NE(eng.graph_fingerprint(again).key(), eng.graph_fingerprint(id).key());
    Ticket on_id = eng.submit(id, b);
    Ticket on_again = eng.submit(again, b);
    eng.shutdown();  // one worker drains the paused queue

    EXPECT_TRUE(bitwise_equal(original.wait().c, reference_spmm(base, b)));
    EXPECT_EQ(on_id.wait().batch_size, 1);
    EXPECT_EQ(on_again.wait().batch_size, 1);
    EXPECT_TRUE(bitwise_equal(on_id.wait().c, reference_spmm(*eng.graph(id), b)));
    EXPECT_TRUE(bitwise_equal(on_again.wait().c, reference_spmm(*eng.graph(again), b)));
    EXPECT_FALSE(bitwise_equal(original.wait().c, on_id.wait().c));
    EXPECT_FALSE(bitwise_equal(on_id.wait().c, on_again.wait().c));
  }
}

TEST(EngineDynamic, CompactedGraphKeepsApartFromASameContentRegistration) {
  // Graph X compacts to content C at version 1. Graph Y registers C and
  // takes one small update that does not compact, so it is at version 1
  // too. Both fingerprints now hold C's structural fields at version 1;
  // the lineage alone keeps their keys, and so their batches, apart.
  const Csr base = testutil::zoo_uniform();
  EdgeBatch big;
  for (index_t i = 0; i < 12; ++i) big.inserts.push_back({i, 9, 0.5f});
  const Csr compacted = DeltaOverlay::apply(base, nullptr, big)->materialize(base);
  EdgeBatch small;
  small.inserts = {{3, 3, 1.0f}};
  const index_t small_nnz = DeltaOverlay::apply(compacted, nullptr, small)->overlay_nnz();
  Engine eng([&] {
    ServeOptions opt = dynamic_opts();
    opt.delta.compact_nnz_fraction =
        (static_cast<double>(small_nnz) + 0.5) / static_cast<double>(compacted.nnz());
    return opt;
  }());

  const GraphId x = eng.register_graph(base);
  ASSERT_TRUE(eng.apply_update(x, big).compacted);
  ASSERT_EQ(*eng.graph(x), compacted);
  const GraphId y = eng.register_graph(compacted);
  ASSERT_NE(y.key, x.key);
  ASSERT_FALSE(eng.apply_update(y, small).compacted);
  const serve::GraphFingerprint fx = eng.graph_fingerprint(x);
  const serve::GraphFingerprint fy = eng.graph_fingerprint(y);
  EXPECT_EQ(fx.version, fy.version);
  EXPECT_EQ(fx.content_hash, fy.content_hash);
  EXPECT_NE(fx.key(), fy.key());

  const DenseMatrix b = features(base.cols, 16, 62);
  Ticket on_x = eng.submit(x, b);
  Ticket on_y = eng.submit(y, b);
  eng.shutdown();
  EXPECT_EQ(on_x.wait().batch_size, 1);
  EXPECT_EQ(on_y.wait().batch_size, 1);
  EXPECT_TRUE(bitwise_equal(on_x.wait().c, reference_spmm(compacted, b)));
  EXPECT_TRUE(bitwise_equal(on_y.wait().c, reference_spmm(*eng.graph(y), b)));
}

/// What a clean engine serves for `spec` over `g`: the model reference.
DenseMatrix model_on_fresh_engine(const Csr& g, const serve::ModelSpec& spec,
                                  const DenseMatrix& x) {
  Engine ref(dynamic_opts());
  const serve::ModelId mid = ref.register_model(ref.register_graph(g), spec);
  Ticket t = ref.submit_model(mid, x);
  ref.shutdown();
  return t.wait().c;
}

TEST(EngineDynamic, ReregisteredGraphGetsItsOwnModel) {
  // The update rebinds the model on A's handle to A' under its old
  // ModelId. The same spec registered on a re-registration of A must
  // compile a new model over A, not hand back the rebound one.
  const Csr base = sparse::uniform_random(48, 48, 384, 806);
  const serve::ModelSpec spec =
      serve::make_model_spec(serve::ServedModelKind::Gcn, 8, 8, 4, 2);
  const DenseMatrix x = features(48, 8, 48);

  Engine eng(dynamic_opts());
  const GraphId gid = eng.register_graph(base);
  const serve::ModelId mid = eng.register_model(gid, spec);
  EdgeBatch batch;
  batch.inserts = {{0, 1, 1.5f}, {5, 9, -2.0f}};
  eng.apply_update(gid, batch);

  const GraphId again = eng.register_graph(base);
  ASSERT_NE(again.key, gid.key);
  const serve::ModelId fresh = eng.register_model(again, spec);
  EXPECT_NE(fresh.key, mid.key);
  EXPECT_EQ(*eng.model(fresh)->graph, base);
  EXPECT_EQ(eng.stats().models_registered, 2u);
  EXPECT_EQ(eng.stats().model_register_dedup_hits, 0u);

  Ticket on_fresh = eng.submit_model(fresh, x);
  Ticket on_rebound = eng.submit_model(mid, x);
  eng.shutdown();
  EXPECT_TRUE(bitwise_equal(on_fresh.wait().c, model_on_fresh_engine(base, spec, x)));
  EXPECT_TRUE(
      bitwise_equal(on_rebound.wait().c, model_on_fresh_engine(*eng.graph(gid), spec, x)));
  EXPECT_FALSE(bitwise_equal(on_fresh.wait().c, on_rebound.wait().c));
}

TEST(EngineDynamic, ModelRebindsUnderStableHandleAndInflightSnapshotSurvives) {
  const Csr base = sparse::uniform_random(48, 48, 384, 806);
  const serve::ModelSpec spec =
      serve::make_model_spec(serve::ServedModelKind::Gcn, 8, 8, 4, 2);
  const DenseMatrix x = features(48, 8, 47);

  // Baselines: the same model served over the pre- and post-update graph.
  const auto model_fresh = [&](const Csr& g) { return model_on_fresh_engine(g, spec, x); };

  Engine eng(dynamic_opts());
  const GraphId gid = eng.register_graph(base);
  const serve::ModelId mid = eng.register_model(gid, spec);

  // Queue a model ticket on the paused engine, then race it with an
  // update: the in-flight ticket captured the old RegisteredModel (and
  // with it the old CSR snapshot) at submit and must serve it.
  Ticket inflight = eng.submit_model(mid, x);
  EdgeBatch batch;
  batch.inserts = {{0, 1, 1.5f}, {5, 9, -2.0f}};
  const UpdateReport rep = eng.apply_update(gid, batch);
  EXPECT_EQ(rep.version, 1u);

  // The rebound registry entry answers the same stable ModelId with a
  // plan over the new graph identity.
  const auto rebound = eng.model(mid);
  EXPECT_EQ(rebound->plan.graph_key, eng.graph_fingerprint(gid).key());
  EXPECT_EQ(rebound->graph->nnz(), eng.graph(gid)->nnz());

  Ticket post = eng.submit_model(mid, x);
  eng.shutdown();

  EXPECT_TRUE(bitwise_equal(inflight.wait().c, model_fresh(base)))
      << "in-flight model ticket must execute its pre-update snapshot";
  EXPECT_TRUE(bitwise_equal(post.wait().c, model_fresh(*eng.graph(gid))))
      << "post-update model ticket must serve the rebound compilation";
  EXPECT_FALSE(bitwise_equal(inflight.wait().c, post.wait().c));
}

TEST(EngineDynamic, UpdateErrorsLeaveTheGraphUntouched) {
  const Csr base = testutil::zoo_uniform();
  Engine eng(dynamic_opts());
  const GraphId id = eng.register_graph(base);

  EdgeBatch bad;
  bad.inserts = {{1, 1, 1.0f}};
  bad.deletes = {{2, base.cols}};  // out of range
  EXPECT_THROW(eng.apply_update(id, bad), std::invalid_argument);
  EXPECT_EQ(eng.graph_fingerprint(id).version, 0u);
  EXPECT_EQ(eng.graph(id)->nnz(), base.nnz());
  EXPECT_EQ(eng.stats().graph_updates, 0u);

  EXPECT_THROW(eng.apply_update(GraphId{777}, bad), std::invalid_argument);
  eng.shutdown();
}

}  // namespace
}  // namespace gespmm
