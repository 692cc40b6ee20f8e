#pragma once
/// \file fingerprint.hpp
/// Structural fingerprints of CSR operands — the identity the serving
/// engine's graph registry and plan cache key on.
///
/// Two requests "use the same graph" exactly when their operands would
/// drive the simulator identically: same shape, same nonzero structure
/// and values. Comparing full CSR arrays on every submit would be O(nnz);
/// a fingerprint condenses the operand into shape counts, a row-length
/// histogram hash (the property the adaptive kernel choice and the cost
/// model's load-imbalance tail depend on) and a content hash over
/// colind/val, so registry lookups are O(1) after one O(nnz) pass at
/// registration time.

#include <cstdint>
#include <string>

#include "sparse/csr.hpp"

namespace gespmm::serve {

using sparse::Csr;
using sparse::index_t;

/// SplitMix64's finalizer as a streaming combiner: deterministic,
/// implementation-independent, and the serve layer's hashing function of
/// record — graph fingerprints and model-plan content keys alike.
std::uint64_t mix64(std::uint64_t h, std::uint64_t x);

/// Identity of a registered sparse operand.
struct GraphFingerprint {
  /// Row count of the operand (C's row count).
  index_t rows = 0;
  /// Column count of the operand (B's required row count).
  index_t cols = 0;
  /// Nonzero count.
  index_t nnz = 0;
  /// SplitMix64-mixed hash over the log2-bucketed row-length histogram —
  /// the skew summary that distinguishes e.g. a uniform matrix from a
  /// power-law graph of identical (rows, cols, nnz).
  std::uint64_t histogram_hash = 0;
  /// Hash over rowptr/colind/val contents (catches same-shape,
  /// same-histogram operands with different structure or edge weights).
  std::uint64_t content_hash = 0;
  /// Monotonically bumped by every `Engine::apply_update` against the
  /// graph (and never reset, not even by compaction), so plan-cache and
  /// model keys derived from `key()` self-invalidate across updates.
  /// 0 for a freshly fingerprinted operand: a version-0, lineage-0 key is
  /// exactly the classic four-field key, keeping pre-versioning goldens (and
  /// cross-engine key stability for static graphs) intact. Between
  /// compactions only `version` moves — the structural fields refresh at
  /// the next compaction, where the O(nnz) pass is paid anyway.
  std::uint64_t version = 0;
  /// Offset of the registered graph's handle from the classic key of the
  /// structural fields above (`GraphId::key == classic key + lineage`).
  /// 0 for a fresh operand and an operand's first registration. A later
  /// registration of the same content probes to a higher handle, and a
  /// compaction refreshes the structural fields; either way the offset
  /// turns non-zero. Handles are unique, so two live graphs never share
  /// a key, whatever their content and version.
  std::uint64_t lineage = 0;

  /// Single 64-bit key for hash maps; mixes all structural fields, plus
  /// `lineage` and `version` when non-zero.
  std::uint64_t key() const;

  /// "rows x cols, nnz=…, hist=…, content=…[, lineage=…][, v=…]" — for
  /// logs and stats dumps.
  std::string str() const;

  bool operator==(const GraphFingerprint&) const = default;
};

/// One O(nnz) pass over a validated CSR.
GraphFingerprint fingerprint(const Csr& a);

}  // namespace gespmm::serve
