#include "serve/shard.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace gespmm::serve {

std::size_t ShardPlan::max_shard_bytes() const {
  std::size_t worst = 0;
  for (const auto& s : shards) worst = std::max(worst, csr_bytes(s.csr));
  return worst;
}

std::size_t csr_bytes(const Csr& a) {
  return a.rowptr.size() * sizeof(index_t) + a.colind.size() * sizeof(index_t) +
         a.val.size() * sizeof(value_t);
}

GraphShard make_shard_from_slice(Csr slice, int index, index_t row_begin,
                                 index_t row_end) {
  GraphShard s;
  s.index = index;
  s.row_begin = row_begin;
  s.row_end = row_end;
  s.csr = std::move(slice);

  // Halo = distinct B rows this shard reads that other shards own under
  // the matching row partition of B. Sort+unique a copy of the slice's
  // colind, then count values outside the owned range.
  std::vector<index_t> cols(s.csr.colind);
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  index_t halo = 0;
  for (const index_t col : cols) {
    if (col < row_begin || col >= row_end) ++halo;
  }
  s.halo_cols = halo;

  s.fp = fingerprint(s.csr);
  s.key = s.fp.key();
  return s;
}

namespace {

GraphShard make_shard(const Csr& a, int index, index_t row_begin,
                      index_t row_end) {
  const auto nz0 = static_cast<std::size_t>(a.rowptr[static_cast<std::size_t>(row_begin)]);
  const auto nz1 = static_cast<std::size_t>(a.rowptr[static_cast<std::size_t>(row_end)]);
  Csr c;
  c.rows = row_end - row_begin;
  c.cols = a.cols;
  c.rowptr.resize(static_cast<std::size_t>(c.rows) + 1);
  for (index_t i = 0; i <= c.rows; ++i) {
    c.rowptr[static_cast<std::size_t>(i)] =
        a.rowptr[static_cast<std::size_t>(row_begin + i)] - static_cast<index_t>(nz0);
  }
  c.colind.assign(a.colind.begin() + static_cast<std::ptrdiff_t>(nz0),
                  a.colind.begin() + static_cast<std::ptrdiff_t>(nz1));
  c.val.assign(a.val.begin() + static_cast<std::ptrdiff_t>(nz0),
               a.val.begin() + static_cast<std::ptrdiff_t>(nz1));
  return make_shard_from_slice(std::move(c), index, row_begin, row_end);
}

}  // namespace

ShardPlan plan_shards(const Csr& a, int num_shards) {
  if (num_shards < 1) {
    throw std::invalid_argument("plan_shards: need at least one shard");
  }
  if (num_shards > a.rows) {
    throw std::invalid_argument("plan_shards: more shards (" +
                                std::to_string(num_shards) + ") than rows (" +
                                std::to_string(a.rows) + ")");
  }

  ShardPlan plan;
  plan.shards.reserve(static_cast<std::size_t>(num_shards));

  // Greedy nnz-balanced walk. Shard k targets remaining_nnz / remaining
  // shards and closes at the first row boundary meeting it; the "leave one
  // row per remaining shard" guard keeps every shard non-empty even on
  // degenerate (all-nnz-up-front) distributions.
  index_t row = 0;
  for (int k = 0; k < num_shards; ++k) {
    const index_t begin = row;
    const int remaining = num_shards - k;
    const index_t last_start = a.rows - static_cast<index_t>(remaining) + 1;
    if (k == num_shards - 1) {
      row = a.rows;
    } else {
      const auto done = static_cast<std::int64_t>(a.rowptr[static_cast<std::size_t>(begin)]);
      const std::int64_t left = static_cast<std::int64_t>(a.nnz()) - done;
      const std::int64_t target = done + (left + remaining - 1) / remaining;
      while (row < last_start &&
             static_cast<std::int64_t>(
                 a.rowptr[static_cast<std::size_t>(row) + 1]) < target) {
        ++row;
      }
      ++row;  // include the row that crossed the target
      row = std::min(row, last_start);
      row = std::max(row, begin + 1);
    }
    plan.shards.push_back(make_shard(a, k, begin, row));
  }
  return plan;
}

}  // namespace gespmm::serve
