#include "solver/logistic.hpp"

#include <cmath>

#include "support/status.hpp"

namespace psra::solver {

namespace {
/// log(1 + exp(-m)) computed without overflow for large |m|.
inline double LogisticTerm(double margin) {
  if (margin >= 0) return std::log1p(std::exp(-margin));
  return -margin + std::log1p(std::exp(margin));
}
/// sigma(m) = 1 / (1 + exp(-m)), overflow-safe.
inline double Sigmoid(double margin) {
  if (margin >= 0) return 1.0 / (1.0 + std::exp(-margin));
  const double e = std::exp(margin);
  return e / (1.0 + e);
}

/// The feature-dimension pass of ValueAndGradient: continues the value and
/// prox chains, writes grad = v + rho (x - z), and with kStep also carries
/// the three StepDots chains. Every chain is strict index order, so the
/// kStep variant leaves value/prox/grad bitwise unchanged.
template <bool kStep>
void ProxPass(std::span<const double> x, std::span<const double> v,
              std::span<const double> z, double rho, std::span<double> grad,
              double& value, double& prox, StepDots* dots) {
  double val = value, pr = 0.0, gs = 0.0, sr = 0.0, sq = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    val += x[i] * v[i];
    const double d = x[i] - z[i];
    pr += d * d;
    grad[i] = v[i] + rho * d;
    if constexpr (kStep) {
      const double si = dots->step[i];
      gs += dots->grad[i] * si;
      sr += dots->residual[i] * si;
      sq += si * si;
    }
  }
  value = val;
  prox = pr;
  if constexpr (kStep) {
    dots->gs = gs;
    dots->sr = sr;
    dots->sq = sq;
  }
}

}  // namespace

double LogisticValue(const data::Dataset& ds, std::span<const double> x,
                     FlopCounter* flops) {
  PSRA_REQUIRE(x.size() == ds.num_features(), "dimension mismatch");
  const auto& m = ds.features();
  double acc = 0.0;
  for (std::uint64_t r = 0; r < m.rows(); ++r) {
    const double margin =
        ds.labels()[static_cast<std::size_t>(r)] * m.RowDot(r, x);
    acc += LogisticTerm(margin);
  }
  if (flops != nullptr) {
    flops->Add(2.0 * static_cast<double>(ds.nnz()) +
               8.0 * static_cast<double>(ds.num_samples()));
  }
  return acc;
}

ProximalLogistic::ProximalLogistic(const data::Dataset* shard, double rho)
    : shard_(shard), rho_(rho) {
  PSRA_REQUIRE(shard_ != nullptr, "null shard");
  PSRA_REQUIRE(rho_ >= 0.0, "rho must be non-negative");
}

void ProximalLogistic::SetRho(double rho) {
  PSRA_REQUIRE(rho >= 0.0, "rho must be non-negative");
  rho_ = rho;
}

void ProximalLogistic::SetUseGramHessian(bool on) {
  use_gram_ = on;
  if (!on) return;
  const auto d = static_cast<std::size_t>(dim());
  gram_.Reset(d);
  const auto& m = shard_->features();
  // One A^T D A accumulation touches every within-row pair once:
  // sum_r k_r (k_r + 1) / 2 multiply-adds.
  double pairs = 0.0;
  for (std::uint64_t r = 0; r < m.rows(); ++r) {
    const auto k = static_cast<double>(m.RowIndices(r).size());
    pairs += 0.5 * k * (k + 1.0);
  }
  gram_flops_ = 2.0 * pairs;
}

void ProximalLogistic::BuildGramFromWeights(FlopCounter* flops) const {
  const auto& m = shard_->features();
  gram_.Reset(static_cast<std::size_t>(dim()));
  m.GramProduct(hess_weights_, gram_);
  gram_.AddDiagonal(rho_);
  if (flops != nullptr) flops->Add(gram_flops_);
}

void ProximalLogistic::SetIterationTerms(std::span<const double> v,
                                         std::span<const double> z) {
  PSRA_REQUIRE(v.size() == dim(), "linear term dimension mismatch");
  PSRA_REQUIRE(z.size() == dim(), "proximal center dimension mismatch");
  v_ = v;
  z_ = z;
}

std::uint64_t ProximalLogistic::dim() const { return shard_->num_features(); }
std::uint64_t ProximalLogistic::num_samples() const {
  return shard_->num_samples();
}

double ProximalLogistic::Value(std::span<const double> x,
                               FlopCounter* flops) const {
  PSRA_REQUIRE(x.size() == dim(), "dimension mismatch");
  PSRA_REQUIRE(!v_.empty() && !z_.empty(),
               "SetIterationTerms must be called first");
  double acc = LogisticValue(*shard_, x, flops);
  double prox = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += x[i] * v_[i];
    const double d = x[i] - z_[i];
    prox += d * d;
  }
  acc += 0.5 * rho_ * prox;
  if (flops != nullptr) flops->Add(6.0 * static_cast<double>(x.size()));
  return acc;
}

double ProximalLogistic::ValueAndGradient(std::span<const double> x,
                                          std::span<double> grad,
                                          FlopCounter* flops,
                                          StepDots* dots) const {
  PSRA_REQUIRE(x.size() == dim() && grad.size() == dim(),
               "dimension mismatch");
  PSRA_REQUIRE(dots == nullptr ||
                   (dots->step.size() == dim() && dots->grad.size() == dim() &&
                    dots->residual.size() == dim()),
               "step dot dimension mismatch");
  PSRA_REQUIRE(!v_.empty() && !z_.empty(),
               "SetIterationTerms must be called first");
  const auto& m = shard_->features();
  const auto n = static_cast<std::size_t>(num_samples());

  margins_.resize(n);
  m.Multiply(x, margins_);

  // Gradient of the logistic part: sum_s (sigma(m_s) - 1) * y_s * a_s.
  // LogisticTerm and Sigmoid share the same exp(+-margin); inlining both
  // here computes it once per sample (identical branches and expressions,
  // so the results match the helper functions bit for bit).
  double value = 0.0;
  coeff_.resize(n);
  sigmas_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    const double y = shard_->labels()[s];
    const double margin = y * margins_[s];
    double sig;
    if (margin >= 0) {
      const double e = std::exp(-margin);
      value += std::log1p(e);
      sig = 1.0 / (1.0 + e);
    } else {
      const double e = std::exp(margin);
      value += -margin + std::log1p(e);
      sig = e / (1.0 + e);
    }
    coeff_[s] = (sig - 1.0) * y;
    sigmas_[s] = sig;
  }
  // Proximal and linear parts, written directly into grad; the sparse
  // logistic part is accumulated on top, saving a zero-fill pass.
  double prox = 0.0;
  if (dots == nullptr) {
    ProxPass<false>(x, v_, z_, rho_, grad, value, prox, nullptr);
  } else {
    ProxPass<true>(x, v_, z_, rho_, grad, value, prox, dots);
  }
  value += 0.5 * rho_ * prox;
  m.TransposeMultiplyAdd(coeff_, grad);

  if (flops != nullptr) {
    flops->Add(4.0 * static_cast<double>(m.nnz()) +
               12.0 * static_cast<double>(n) +
               8.0 * static_cast<double>(x.size()));
  }
  return value;
}

void ProximalLogistic::PrepareHessian(std::span<const double> x,
                                      FlopCounter* flops) const {
  PSRA_REQUIRE(x.size() == dim(), "dimension mismatch");
  const auto& m = shard_->features();
  const auto n = static_cast<std::size_t>(num_samples());
  margins_.resize(n);
  m.Multiply(x, margins_);
  hess_weights_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    const double sig = Sigmoid(shard_->labels()[s] * margins_[s]);
    hess_weights_[s] = sig * (1.0 - sig);
  }
  if (flops != nullptr) {
    flops->Add(2.0 * static_cast<double>(m.nnz()) +
               6.0 * static_cast<double>(n));
  }
  if (use_gram_) BuildGramFromWeights(flops);
}

void ProximalLogistic::PrepareHessianFromLastGradient(
    FlopCounter* flops) const {
  const auto n = static_cast<std::size_t>(num_samples());
  PSRA_CHECK(sigmas_.size() == n,
             "ValueAndGradient must be called before "
             "PrepareHessianFromLastGradient");
  hess_weights_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    const double sig = sigmas_[s];
    hess_weights_[s] = sig * (1.0 - sig);
  }
  if (flops != nullptr) flops->Add(2.0 * static_cast<double>(n));
  if (use_gram_) BuildGramFromWeights(flops);
}

double ProximalLogistic::HessianVecQuad(std::span<const double> d, double dd,
                                        std::span<double> out,
                                        FlopCounter* flops) const {
  PSRA_REQUIRE(d.size() == dim() && out.size() == dim(), "dimension mismatch");
  PSRA_CHECK(hess_weights_.size() == num_samples(),
             "PrepareHessian must be called before HessianVecQuad");
  if (use_gram_) {
    // Dense symmetric matvec against the cached Gram (rho already on the
    // diagonal); the quadratic falls out as <d, H d>.
    gram_.Multiply(d, out);
    const double quad = linalg::Dot(d, out);
    if (flops != nullptr) {
      const auto dd_cost = static_cast<double>(d.size());
      flops->Add(2.0 * dd_cost * dd_cost + 2.0 * dd_cost);
    }
    return quad;
  }
  const auto& m = shard_->features();
  const auto n = static_cast<std::size_t>(num_samples());

  hessvec_tmp_.resize(n);
  m.Multiply(d, hessvec_tmp_);
  // d^T (X^T D X) d = sum_s w_s (Xd)_s^2 falls out of the sample loop, so
  // the full quadratic needs no extra pass over the feature dimension.
  double quad = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    const double md = hessvec_tmp_[s];
    const double wmd = hess_weights_[s] * md;
    quad += wmd * md;
    hessvec_tmp_[s] = wmd;
  }
  // out already holds rho * d (the caller's seed); the 2 d flops of that
  // term stay charged here.
  m.TransposeMultiplyAdd(hessvec_tmp_, out);

  if (flops != nullptr) {
    flops->Add(4.0 * static_cast<double>(m.nnz()) +
               3.0 * static_cast<double>(n) + 2.0 * static_cast<double>(d.size()));
  }
  return rho_ * dd + quad;
}

void ProximalLogistic::HessianVec(std::span<const double> d,
                                  std::span<double> out,
                                  FlopCounter* flops) const {
  PSRA_REQUIRE(d.size() == dim() && out.size() == dim(), "dimension mismatch");
  PSRA_CHECK(hess_weights_.size() == num_samples(),
             "PrepareHessian must be called before HessianVec");
  if (use_gram_) {
    gram_.Multiply(d, out);
    if (flops != nullptr) {
      const auto dd_cost = static_cast<double>(d.size());
      flops->Add(2.0 * dd_cost * dd_cost);
    }
    return;
  }
  const auto& m = shard_->features();
  const auto n = static_cast<std::size_t>(num_samples());

  hessvec_tmp_.resize(n);
  m.Multiply(d, hessvec_tmp_);
  for (std::size_t s = 0; s < n; ++s) hessvec_tmp_[s] *= hess_weights_[s];
  for (std::size_t i = 0; i < d.size(); ++i) out[i] = rho_ * d[i];
  m.TransposeMultiplyAdd(hessvec_tmp_, out);

  if (flops != nullptr) {
    flops->Add(4.0 * static_cast<double>(m.nnz()) +
               static_cast<double>(n) + 2.0 * static_cast<double>(d.size()));
  }
}

}  // namespace psra::solver
