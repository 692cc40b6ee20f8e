#include "gnn/aggregation.hpp"

#include <stdexcept>
#include <tuple>

#include "kernels/spmm_host.hpp"
#include "kernels/spmm_problem.hpp"

namespace gespmm::gnn {

const char* backend_name(AggregatorBackend b) {
  switch (b) {
    case AggregatorBackend::DglCusparse: return "dgl(csrmm2+transpose)";
    case AggregatorBackend::DglFallback: return "dgl(fallback)";
    case AggregatorBackend::PyGMessagePassing: return "pyg(message-passing)";
    case AggregatorBackend::GeSpMM: return "ge-spmm";
  }
  return "?";
}

namespace {

/// FNV-1a over the whole CSR structure: the shape and every rowptr and
/// colind entry, which is all a simulated aggregation reads. O(nnz), like
/// the transpose the constructor builds.
std::uint64_t csr_fingerprint(const sparse::Csr& a) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(a.rows));
  mix(static_cast<std::uint64_t>(a.cols));
  for (const sparse::index_t r : a.rowptr) mix(static_cast<std::uint64_t>(r));
  for (const sparse::index_t c : a.colind) mix(static_cast<std::uint64_t>(c));
  return h;
}

using TimeKey = std::tuple<std::uint64_t, std::string, AggregatorBackend, ReduceKind,
                           sparse::index_t, bool>;

std::map<TimeKey, double>& global_time_cache() {
  static std::map<TimeKey, double> cache;
  return cache;
}

}  // namespace

GnnGraph::GnnGraph(sparse::Csr adj, gpusim::DeviceSpec dev)
    : fwd_(std::move(adj)), bwd_(sparse::transpose(fwd_)), dev_(std::move(dev)),
      cost_(dev_), fingerprint_(csr_fingerprint(fwd_)) {}

double GnnGraph::aggregation_time_ms(AggregatorBackend backend, ReduceKind reduce,
                                     index_t n, bool transposed) const {
  auto& time_cache_ = global_time_cache();
  const auto key = std::make_tuple(fingerprint_, dev_.name, backend, reduce, n, transposed);
  if (auto it = time_cache_.find(key); it != time_cache_.end()) return it->second;

  const sparse::Csr& a = transposed ? bwd_ : fwd_;
  double ms = 0.0;
  kernels::SpmmRunOptions opt;
  opt.device = dev_;
  opt.sample = gpusim::SamplePolicy::sampled(1024);

  switch (backend) {
    case AggregatorBackend::DglCusparse: {
      // csrmm2 computes the standard SpMM only; DGL then fixes the
      // column-major output with a cuBLAS transpose (paper Section II-C).
      kernels::SpmmProblem p(a, n, kernels::Layout::ColMajor, gpusim::address_only);
      ms = kernels::run_spmm(kernels::SpmmAlgo::Csrmm2, p, opt).time_ms() +
           cost_.csrmm2_call_overhead_ms() + cost_.transpose_ms(a.rows, n);
      break;
    }
    case AggregatorBackend::DglFallback: {
      kernels::SpmmProblem p(a, n, kernels::Layout::RowMajor, gpusim::address_only);
      opt.reduce = reduce;
      // DGL's generic path zero-initializes the output and stages the
      // edge-functor dispatch in separate launches around the reduce
      // kernel.
      ms = kernels::run_spmm(kernels::SpmmAlgo::DglFallback, p, opt).time_ms() +
           2.0 * cost_.launch_ms();
      break;
    }
    case AggregatorBackend::PyGMessagePassing: {
      ms = cost_.pyg_message_passing_ms(a.nnz(), n, a.rows);
      break;
    }
    case AggregatorBackend::GeSpMM: {
      kernels::SpmmProblem p(a, n, kernels::Layout::RowMajor, gpusim::address_only);
      opt.reduce = reduce;
      ms = kernels::run_spmm(kernels::SpmmAlgo::GeSpMM, p, opt).time_ms();
      break;
    }
  }
  time_cache_[key] = ms;
  return ms;
}

Tensor aggregate_forward(const sparse::Csr& a, const Tensor& x, ReduceKind reduce) {
  if (x.rows() != a.cols) {
    throw std::invalid_argument("aggregate_forward: x must have A.cols rows");
  }
  Tensor out(a.rows, x.cols());
  kernels::spmm_host_rows(a, x.flat().data(), out.flat().data(), x.cols(), reduce);
  return out;
}

Tensor aggregate_backward_sum(const sparse::Csr& at, const Tensor& dy) {
  // dX = A^T dY, computed as another SpMM over the transposed operand.
  return aggregate_forward(at, dy, ReduceKind::Sum);
}

Tensor aggregate_backward_mean(const sparse::Csr& a, const sparse::Csr& at,
                               const Tensor& dy) {
  Tensor scaled(dy.rows(), dy.cols());
  for (index_t i = 0; i < a.rows; ++i) {
    const index_t nnz = a.rowptr[static_cast<std::size_t>(i) + 1] -
                        a.rowptr[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < dy.cols(); ++j) {
      scaled.at(i, j) = nnz == 0 ? 0.0f : dy.at(i, j) / static_cast<value_t>(nnz);
    }
  }
  return aggregate_backward_sum(at, scaled);
}

Tensor aggregate_backward_select(const sparse::Csr& a, const Tensor& x, const Tensor& y,
                                 const Tensor& dy) {
  Tensor dx(x.rows(), dy.cols());
  const index_t n = dy.cols();
  for (index_t i = 0; i < a.rows; ++i) {
    const index_t lo = a.rowptr[static_cast<std::size_t>(i)];
    const index_t hi = a.rowptr[static_cast<std::size_t>(i) + 1];
    for (index_t j = 0; j < n; ++j) {
      for (index_t p = lo; p < hi; ++p) {
        const index_t k = a.colind[static_cast<std::size_t>(p)];
        const value_t v = a.val[static_cast<std::size_t>(p)];
        if (v * x.at(k, j) == y.at(i, j)) {
          dx.at(k, j) += v * dy.at(i, j);
          break;
        }
      }
    }
  }
  return dx;
}

}  // namespace gespmm::gnn
