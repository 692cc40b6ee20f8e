#include "serve/fingerprint.hpp"

#include <array>
#include <bit>
#include <sstream>

#include "core/plan_select.hpp"
#include "sparse/rng.hpp"

namespace gespmm::serve {

std::uint64_t mix64(std::uint64_t h, std::uint64_t x) {
  std::uint64_t z = h + 0x9e3779b97f4a7c15ull + x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t GraphFingerprint::key() const {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(rows),
                        static_cast<std::uint64_t>(cols));
  h = mix64(h, static_cast<std::uint64_t>(nnz));
  h = mix64(h, histogram_hash);
  h = mix64(h, content_hash);
  // Lineage and version 0 keep the classic four-field key so static-graph
  // keys (and the absolute key goldens) are unchanged by either feature.
  // The lineage mix is domain-separated from the version mix, so lineage
  // k at version 0 never meets lineage 0 at version k.
  if (lineage != 0) h = mix64(h ^ 0x6c696e65616765ull, lineage);  // "lineage"
  if (version != 0) h = mix64(h, version);
  return h;
}

std::string GraphFingerprint::str() const {
  std::ostringstream os;
  os << rows << "x" << cols << ", nnz=" << nnz << ", hist=" << std::hex
     << histogram_hash << ", content=" << content_hash;
  if (lineage != 0) os << ", lineage=" << lineage;
  if (version != 0) os << std::dec << ", v=" << version;
  return os.str();
}

GraphFingerprint fingerprint(const Csr& a) {
  GraphFingerprint fp;
  fp.rows = a.rows;
  fp.cols = a.cols;
  fp.nnz = a.nnz();

  // Row-length histogram over log2 buckets: bucket 0 counts empty rows
  // and bucket b >= 1 counts rows with 2^(b-1) <= nnz < 2^b — i.e. bucket
  // bit_width(len), so a power-of-two length 2^k opens bucket k+1 rather
  // than closing bucket k. This half-open contract is the stable identity
  // the bucket-boundary goldens in test_serve_engine.cpp pin, and the
  // same bucketing the learned plan selector conditions on — shared via
  // core/plan_select so the two can never drift.
  const std::array<std::uint64_t, kRowHistBuckets> hist =
      row_length_histogram(a);
  std::uint64_t hh = 0x5ca1ab1eull;
  for (std::uint64_t count : hist) hh = mix64(hh, count);
  fp.histogram_hash = hh;

  std::uint64_t ch = 0xc0ffeeull;
  for (index_t p : a.rowptr) ch = mix64(ch, static_cast<std::uint64_t>(p));
  for (index_t c : a.colind) ch = mix64(ch, static_cast<std::uint64_t>(c));
  for (float v : a.val) ch = mix64(ch, std::bit_cast<std::uint32_t>(v));
  fp.content_hash = ch;
  return fp;
}

}  // namespace gespmm::serve
