#include "solver/tron.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/dense_ops.hpp"
#include "support/status.hpp"

namespace psra::solver {

namespace {

struct CgOutcome {
  int iterations = 0;
  bool hit_boundary = false;
};

/// Steihaug-Toint truncated CG: approximately solves H s = -g subject to
/// ||s|| <= delta. `s` is overwritten with the step; r/p/hp/r_next are
/// caller-owned working vectors of the same dimension. `gg` is the caller's
/// <grad, grad> (r starts as -grad elementwise, so it doubles as the initial
/// <r, r>). On return r holds the final CG residual -g - H s, which the
/// caller uses to price the quadratic model without another Hessian product.
/// r and r_next may have swapped storage by then.
CgOutcome TruncatedCg(const ProximalLogistic& f, std::span<const double> grad,
                      double gg, double delta, const TronOptions& opt,
                      std::span<double> s, FlopCounter* flops,
                      linalg::DenseVector& r, linalg::DenseVector& p,
                      linalg::DenseVector& hp, linalg::DenseVector& r_next) {
  const std::size_t d = grad.size();
  const double rho = f.rho();
  // s = 0, r = -grad, p = r in a single sweep, plus hp = rho p: the seed
  // HessianVecQuad accumulates the data term onto.
  for (std::size_t i = 0; i < d; ++i) {
    s[i] = 0.0;
    const double ri = -grad[i];
    r[i] = ri;
    p[i] = ri;
    hp[i] = rho * ri;
  }

  double rr = gg;
  // <p, p>, maintained by the recurrences below so the Hessian quadratic and
  // the boundary solve never need a dedicated pass over p.
  double pp = gg;
  const double stop = opt.cg_tolerance * std::sqrt(gg);

  CgOutcome out;
  for (int j = 0; j < opt.max_cg_iterations; ++j) {
    if (std::sqrt(rr) <= stop) break;
    ++out.iterations;

    const double php = f.HessianVecQuad(p, pp, hp, flops);
    if (flops != nullptr) flops->Add(10.0 * static_cast<double>(d));

    auto to_boundary = [&] {
      // Find tau >= 0 with ||s + tau p|| = delta.
      const double ss = linalg::Dot(s, s);
      const double sp = linalg::Dot(s, p);
      const double disc = sp * sp + pp * (delta * delta - ss);
      const double tau = (-sp + std::sqrt(std::max(0.0, disc))) / pp;
      linalg::Axpy(tau, p, s);
      // Keep r = -g - H s exact so the caller's model pricing stays valid.
      linalg::Axpy(-tau, hp, r);
      out.hit_boundary = true;
    };

    if (php <= 0.0) {
      // Negative curvature: follow p to the trust-region boundary.
      to_boundary();
      break;
    }

    const double alpha = rr / php;
    // Optimistic s += alpha p and r - alpha hp in one pass with both
    // squared norms. The new residual goes to r_next, so the (rare)
    // boundary case below steps s back and still finds the old r, without
    // a read-only probe pass on the common interior path (LIBLINEAR steps
    // back the same way).
    double ss = 0.0, rr_new = 0.0;
    linalg::DualAxpyNormSq(alpha, p, s, hp, r, r_next, ss, rr_new);
    if (ss >= delta * delta) {
      linalg::Axpy(-alpha, p, s);
      to_boundary();
      break;
    }
    std::swap(r, r_next);

    // p = r + beta p fused with <p, p> for the next quadratic/boundary use,
    // and with the next product's seed hp = rho p.
    const double beta = rr_new / rr;
    pp = linalg::XpayNormSq(beta, r, p, rho, hp);
    rr = rr_new;
  }
  return out;
}

}  // namespace

void TronWorkspace::Resize(std::size_t dim) {
  grad.resize(dim);
  grad_new.resize(dim);
  x_new.resize(dim);
  step.resize(dim);
  cg_r.resize(dim);
  cg_p.resize(dim);
  cg_hp.resize(dim);
}

TronResult TronMinimize(const ProximalLogistic& f, std::span<double> x,
                        const TronOptions& opt, FlopCounter* flops) {
  TronWorkspace ws;
  return TronMinimize(f, x, opt, flops, ws);
}

TronResult TronMinimize(const ProximalLogistic& f, std::span<double> x,
                        const TronOptions& opt, FlopCounter* flops,
                        TronWorkspace& ws) {
  PSRA_REQUIRE(x.size() == f.dim(), "initial point dimension mismatch");
  const std::size_t d = x.size();

  ws.Resize(d);

  TronResult res;
  double value = f.ValueAndGradient(x, ws.grad, flops);
  double gg = linalg::Dot(ws.grad, ws.grad);
  double gnorm = std::sqrt(gg);
  const double gnorm0 = gnorm;
  double delta = gnorm0 > 0 ? gnorm0 : 1.0;

  const auto is_converged = [&](double g) {
    return g <= opt.gradient_tolerance * gnorm0 ||
           (opt.absolute_tolerance > 0 && g <= opt.absolute_tolerance);
  };
  if (is_converged(gnorm) || gnorm0 == 0.0) {
    res.converged = true;
    res.objective = value;
    res.gradient_norm = gnorm;
    return res;
  }

  // The most recent ValueAndGradient call already cached the per-sample
  // sigmas at its evaluation point; while that point is the current x
  // (always, except right after a rejected trial step), the Hessian weights
  // come from the cache instead of a fresh matrix product.
  bool grad_eval_at_x = true;
  for (int it = 0; it < opt.max_iterations; ++it) {
    ++res.iterations;
    if (grad_eval_at_x) {
      f.PrepareHessianFromLastGradient(flops);
    } else {
      f.PrepareHessian(x, flops);
    }
    // x_new is idle until the trial step, so CG borrows it as the
    // double buffer for its residual.
    const CgOutcome cg = TruncatedCg(f, ws.grad, gg, delta, opt, ws.step,
                                     flops, ws.cg_r, ws.cg_p, ws.cg_hp,
                                     ws.x_new);
    res.cg_iterations += cg.iterations;

    // Predicted reduction from the quadratic model. The CG residual
    // r = -g - H s gives s^T H s = -(g^T s + r^T s), so
    //   -(g^T s + 0.5 s^T H s) = -0.5 (g^T s - r^T s)
    // without another Hessian product (LIBLINEAR's trcg pricing). The dots
    // ride along with the evaluation's own pass over x_new, so the
    // strict-order chains cost one sweep per iteration, not two.
    for (std::size_t i = 0; i < d; ++i) ws.x_new[i] = x[i] + ws.step[i];
    if (flops != nullptr) flops->Add(7.0 * static_cast<double>(d));
    StepDots dots{ws.step, ws.grad, ws.cg_r};
    const double value_new =
        f.ValueAndGradient(ws.x_new, ws.grad_new, flops, &dots);
    const double predicted = -0.5 * (dots.gs - dots.sr);
    const double snorm = std::sqrt(dots.sq);
    const double actual = value - value_new;
    grad_eval_at_x = false;  // sigmas now cached at x_new; set true on accept

    // The model's best achievable decrease is below the floating-point
    // resolution of the objective: no acceptance test can measure progress
    // anymore, so the iterate is converged to numerical precision.
    const double value_floor =
        8.0 * std::numeric_limits<double>::epsilon() * std::fabs(value);
    if (predicted > 0 && predicted < value_floor && actual <= 0) {
      res.converged = true;
      break;
    }

    // Trust-region radius update (Lin-More style).
    const double ratio = predicted > 0 ? actual / predicted : -1.0;
    if (ratio < opt.eta1) {
      delta = std::min(std::max(opt.sigma1 * snorm, opt.sigma1 * delta),
                       opt.sigma2 * delta);
    } else if (ratio >= opt.eta2 && cg.hit_boundary) {
      delta = std::max(delta, opt.sigma3 * snorm);
    }

    if (ratio > opt.eta0 && actual > 0) {
      value = value_new;
      grad_eval_at_x = true;  // x becomes x_new below
      std::swap(ws.grad, ws.grad_new);
      // Accept-copy fused with <g, g>; four-lane order matches linalg::Dot.
      gg = linalg::CopyNormSq(ws.x_new, x, ws.grad);
      gnorm = std::sqrt(gg);
      if (is_converged(gnorm)) {
        res.converged = true;
        break;
      }
    }
    if (delta < 1e-12 || snorm < 1e-14) break;  // stalled
  }

  res.objective = value;
  res.gradient_norm = gnorm;
  return res;
}

}  // namespace psra::solver
