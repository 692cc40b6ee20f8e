#include "gnn/autograd.hpp"

#include <cmath>

#include "sparse/rng.hpp"

namespace gespmm::gnn {

VarPtr Engine::track(VarPtr v) {
  tape_.push_back(v);
  return v;
}

VarPtr Engine::input(Tensor v) { return std::make_shared<Var>(std::move(v), false); }

VarPtr Engine::param(Tensor v) {
  auto p = std::make_shared<Var>(std::move(v), true);
  params_.push_back(p);
  return p;
}

VarPtr Engine::matmul(const VarPtr& x, const VarPtr& w) {
  auto out = std::make_shared<Var>(gnn::matmul(x->value, w->value), true);
  profiler_.record(OpKind::Gemm, "matmul",
                   cost_.gemm_ms(x->value.rows(), x->value.cols(), w->value.cols()));
  VarPtr xc = x, wc = w;
  Var* op = out.get();
  out->backward_fn = [this, xc, wc, op]() {
    // dX = dY W^T ; dW = X^T dY — both GEMMs on the device.
    if (xc->requires_grad) {
      xc->add_grad(matmul_bt(op->grad, wc->value));
      profiler_.record(OpKind::Gemm, "matmul.dX",
                       cost_.gemm_ms(op->grad.rows(), op->grad.cols(), wc->value.rows()));
    }
    wc->add_grad(matmul_at(xc->value, op->grad));
    profiler_.record(OpKind::Gemm, "matmul.dW",
                     cost_.gemm_ms(xc->value.cols(), xc->value.rows(), op->grad.cols()));
  };
  return track(out);
}

VarPtr Engine::add_bias(const VarPtr& x, const VarPtr& b) {
  auto out = std::make_shared<Var>(gnn::add_bias(x->value, b->value), true);
  profiler_.record(OpKind::Elementwise, "add_bias",
                   cost_.elementwise_ms(2 * x->value.bytes()));
  VarPtr xc = x, bc = b;
  Var* op = out.get();
  out->backward_fn = [this, xc, bc, op]() {
    if (xc->requires_grad) xc->add_grad(op->grad);
    bc->add_grad(colsum(op->grad));
    profiler_.record(OpKind::Elementwise, "add_bias.bwd",
                     cost_.elementwise_ms(op->grad.bytes()));
  };
  return track(out);
}

VarPtr Engine::relu(const VarPtr& x) {
  auto out = std::make_shared<Var>(gnn::relu(x->value), true);
  profiler_.record(OpKind::Elementwise, "relu", cost_.elementwise_ms(2 * x->value.bytes()));
  VarPtr xc = x;
  Var* op = out.get();
  out->backward_fn = [this, xc, op]() {
    if (!xc->requires_grad) return;
    Tensor mask(op->value.rows(), op->value.cols());
    for (std::size_t i = 0; i < mask.size(); ++i) {
      mask.flat()[i] = op->value.flat()[i] > 0.0f ? 1.0f : 0.0f;
    }
    xc->add_grad(hadamard(op->grad, mask));
    profiler_.record(OpKind::Elementwise, "relu.bwd",
                     cost_.elementwise_ms(2 * op->grad.bytes()));
  };
  return track(out);
}

VarPtr Engine::dropout(const VarPtr& x, double p, std::uint64_t seed) {
  if (p < 0.0 || p >= 1.0) throw std::invalid_argument("dropout: p must be in [0, 1)");
  auto mask = std::make_shared<Tensor>(x->value.rows(), x->value.cols());
  {
    sparse::SplitMix64 rng(seed);
    const float keep_scale = static_cast<float>(1.0 / (1.0 - p));
    for (std::size_t i = 0; i < mask->size(); ++i) {
      mask->flat()[i] = rng.next_double() < p ? 0.0f : keep_scale;
    }
  }
  auto out = std::make_shared<Var>(hadamard(x->value, *mask), true);
  profiler_.record(OpKind::Elementwise, "dropout",
                   cost_.elementwise_ms(3 * x->value.bytes()));
  VarPtr xc = x;
  Var* op = out.get();
  out->backward_fn = [this, xc, op, mask]() {
    if (!xc->requires_grad) return;
    xc->add_grad(hadamard(op->grad, *mask));
    profiler_.record(OpKind::Elementwise, "dropout.bwd",
                     cost_.elementwise_ms(2 * op->grad.bytes()));
  };
  return track(out);
}

VarPtr Engine::concat(const VarPtr& a, const VarPtr& b) {
  auto out = std::make_shared<Var>(concat_cols(a->value, b->value), true);
  profiler_.record(OpKind::Elementwise, "concat",
                   cost_.elementwise_ms(2 * out->value.bytes()));
  VarPtr ac = a, bc = b;
  Var* op = out.get();
  out->backward_fn = [this, ac, bc, op]() {
    Tensor ga, gb;
    split_cols(op->grad, ac->value.cols(), ga, gb);
    if (ac->requires_grad) ac->add_grad(ga);
    if (bc->requires_grad) bc->add_grad(gb);
    profiler_.record(OpKind::Elementwise, "concat.bwd",
                     cost_.elementwise_ms(op->grad.bytes()));
  };
  return track(out);
}

VarPtr Engine::aggregate(const GnnGraph& g, const VarPtr& x, AggregatorBackend backend,
                         ReduceKind reduce) {
  auto out = std::make_shared<Var>(aggregate_forward(g.forward_csr(), x->value, reduce), true);
  const index_t n = x->value.cols();
  const bool is_like = reduce != ReduceKind::Sum;
  const OpKind kind = is_like ? OpKind::SpmmLike : OpKind::Spmm;
  profiler_.record(kind, std::string("aggregate.") + backend_name(backend),
                   g.aggregation_time_ms(backend, reduce, n, /*transposed=*/false));

  VarPtr xc = x;
  Var* op = out.get();
  out->backward_fn = [this, &g, xc, op, backend, reduce, kind, n]() {
    if (!xc->requires_grad) return;
    switch (reduce) {
      case ReduceKind::Sum:
        xc->add_grad(aggregate_backward_sum(g.backward_csr(), op->grad));
        break;
      case ReduceKind::Mean:
        xc->add_grad(aggregate_backward_mean(g.forward_csr(), g.backward_csr(), op->grad));
        break;
      case ReduceKind::Max:
      case ReduceKind::Min:
        xc->add_grad(
            aggregate_backward_select(g.forward_csr(), xc->value, op->value, op->grad));
        break;
    }
    profiler_.record(kind, std::string("aggregate.bwd.") + backend_name(backend),
                     g.aggregation_time_ms(backend, reduce, n, /*transposed=*/true));
  };
  return track(out);
}

Engine::LossInfo Engine::softmax_cross_entropy(const VarPtr& logits,
                                               std::span<const int> labels) {
  const Tensor logp = log_softmax(logits->value);
  auto res = nll_loss(logp, labels);
  profiler_.record(OpKind::LossSoftmax, "softmax_ce",
                   cost_.rowwise_ms(logits->value.rows(), logits->value.cols()));
  logits->add_grad(res.grad_logits);
  return {res.loss, res.accuracy};
}

void Engine::backward() {
  for (auto it = tape_.rbegin(); it != tape_.rend(); ++it) {
    if ((*it)->backward_fn) (*it)->backward_fn();
  }
}

void Engine::zero_grad_and_tape() {
  tape_.clear();
  for (auto& p : params_) p->zero_grad();
}

Adam::Adam(Engine& eng, double lr, double beta1, double beta2, double eps)
    : eng_(&eng), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  for (const auto& p : eng.params()) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, t_);
  const double bc2 = 1.0 - std::pow(beta2_, t_);
  std::int64_t total_params = 0;
  const auto params = eng_->params();
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    auto& p = params[pi];
    total_params += static_cast<std::int64_t>(p->value.size());
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const float g = p->grad.flat()[i];
      float& m = m_[pi].flat()[i];
      float& v = v_[pi].flat()[i];
      m = static_cast<float>(beta1_ * m + (1.0 - beta1_) * g);
      v = static_cast<float>(beta2_ * v + (1.0 - beta2_) * g * g);
      const double mhat = m / bc1;
      const double vhat = v / bc2;
      p->value.flat()[i] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
    }
  }
  eng_->profiler().record(OpKind::Optimizer, "adam",
                          eng_->cost().adam_ms(total_params));
}

}  // namespace gespmm::gnn
