// L2-proximal logistic loss for the ADMM x-subproblem (paper eq. 4):
//
//   phi(x) = sum_s log(1 + exp(-y_s a_s^T x)) + x^T v + (rho/2) ||x - z||^2
//
// with v the dual term (y_i in the paper) and z the consensus iterate.
// Provides value, gradient and Hessian-vector products (H = A^T D A + rho I)
// so TRON can run matrix-free over the CSR shard.
#pragma once

#include <span>

#include "data/dataset.hpp"
#include "linalg/dense_ops.hpp"
#include "linalg/gram.hpp"
#include "solver/flops.hpp"

namespace psra::solver {

/// Plain logistic loss over a dataset (no proximal terms); also used to
/// evaluate the global objective on the full training set.
double LogisticValue(const data::Dataset& ds, std::span<const double> x,
                     FlopCounter* flops = nullptr);

/// Inner products of a TRON trial step, accumulated inside the
/// ValueAndGradient pass over the feature dimension at x_new = x + step
/// (one strict-order pass instead of two; see TronMinimize). Each is a
/// single sequential chain in index order.
struct StepDots {
  std::span<const double> step;      // s
  std::span<const double> grad;      // g at the current iterate
  std::span<const double> residual;  // final CG residual r
  double gs = 0.0;                   // <g, s>
  double sr = 0.0;                   // <s, r>
  double sq = 0.0;                   // <s, s>
};

class ProximalLogistic {
 public:
  /// `shard` must outlive this object. rho >= 0; v and z have the feature
  /// dimension (either may be empty spans meaning zero).
  ProximalLogistic(const data::Dataset* shard, double rho);

  /// Sets the proximal center z and linear term v for the current ADMM
  /// iteration. Both must have size dim() (enforced).
  void SetIterationTerms(std::span<const double> v, std::span<const double> z);

  /// Updates the proximal weight (adaptive-penalty ADMM changes rho between
  /// iterations).
  void SetRho(double rho);
  double rho() const { return rho_; }

  /// Enables the Gram-accelerated Hessian path (transpose reduction,
  /// DESIGN.md §14): PrepareHessian* additionally accumulates the packed
  /// weighted Gram G = A^T D A + rho I once per outer TRON iteration, after
  /// which every Hessian-vector product is a dense d x d symmetric matvec
  /// that never re-streams the shard. Pays off on tall shards
  /// (num_samples >> dim). The Gram buffer is preallocated here so the
  /// iteration hot path stays allocation-free.
  void SetUseGramHessian(bool on);
  bool use_gram_hessian() const { return use_gram_; }

  std::uint64_t dim() const;
  std::uint64_t num_samples() const;

  /// phi(x); also caches the per-sample margins for the follow-up gradient.
  double Value(std::span<const double> x, FlopCounter* flops = nullptr) const;

  /// grad = nabla phi(x). Returns phi(x). When `dots` is non-null its
  /// products are accumulated in the same pass (the spans must have size
  /// dim() and must not alias grad); the flop charge is unchanged.
  double ValueAndGradient(std::span<const double> x, std::span<double> grad,
                          FlopCounter* flops = nullptr,
                          StepDots* dots = nullptr) const;

  /// Prepares Hessian state at x (per-sample sigma weights); must be called
  /// before HessianVec.
  void PrepareHessian(std::span<const double> x,
                      FlopCounter* flops = nullptr) const;

  /// PrepareHessian at the point of the most recent ValueAndGradient call,
  /// reusing its cached per-sample sigmas: no matrix product and no
  /// transcendentals, with weights bit-identical to PrepareHessian at that
  /// point. The caller is responsible for knowing the last gradient
  /// evaluation happened at the intended x (TRON tracks this across
  /// accepted/rejected trial steps).
  void PrepareHessianFromLastGradient(FlopCounter* flops = nullptr) const;

  /// out = (A^T D A + rho I) d, with D from the last PrepareHessian call.
  void HessianVec(std::span<const double> d, std::span<double> out,
                  FlopCounter* flops = nullptr) const;

  /// HessianVec plus the quadratic form: returns d^T H d, with <d, d> = `dd`
  /// supplied by the caller (CG maintains it via a recurrence, so the
  /// quadratic costs no extra pass over the feature dimension). `out` must
  /// hold rho() * d on entry: CG writes it in its direction update, so the
  /// matrix-free path accumulates A^T D A d onto it without an init pass of
  /// its own (the Gram path overwrites it).
  double HessianVecQuad(std::span<const double> d, double dd,
                        std::span<double> out,
                        FlopCounter* flops = nullptr) const;

 private:
  const data::Dataset* shard_;
  double rho_;
  std::span<const double> v_;
  std::span<const double> z_;
  // Scratch: per-sample weights sigma*(1-sigma) for Hessian products, margin
  // buffers and per-sample coefficient vectors. Mutable because they are
  // caches, not state; they grow once to num_samples() and are recycled, so
  // repeated evaluations do not allocate.
  mutable linalg::DenseVector hess_weights_;
  mutable linalg::DenseVector margins_;
  mutable linalg::DenseVector coeff_;
  mutable linalg::DenseVector sigmas_;
  mutable linalg::DenseVector hessvec_tmp_;
  // Transpose-reduction state: packed weighted Gram (rho baked into the
  // diagonal at build time) rebuilt by PrepareHessian* while enabled.
  bool use_gram_ = false;
  double gram_flops_ = 0.0;  // cost of one A^T D A accumulation
  mutable linalg::SymmetricGram gram_;

  void BuildGramFromWeights(FlopCounter* flops) const;
};

}  // namespace psra::solver
