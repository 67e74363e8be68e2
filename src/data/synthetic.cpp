#include "data/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/status.hpp"
#include "support/string_util.hpp"

namespace psra::data {

namespace {

/// Precomputed cumulative Zipf distribution over feature ids.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double exponent) : cdf_(n) {
    PSRA_REQUIRE(n > 0, "empty feature space");
    double acc = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf_[static_cast<std::size_t>(i)] = acc;
    }
    for (double& v : cdf_) v /= acc;
  }

  std::uint64_t Sample(psra::Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint64_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// One sample: draw nnz count, draw distinct popularity ranks (zipf), map
/// them through the id permutation, tf-idf-like positive values,
/// L2-normalize. The permutation spreads popular features across the whole
/// index space, as in real hashed/lexicographic feature spaces — without it
/// every popular feature would land in the first Allreduce block.
linalg::SparseVector MakeRow(std::uint64_t dim, double mean_nnz,
                             const ZipfSampler& zipf,
                             const std::vector<std::uint64_t>& perm,
                             psra::Rng& rng) {
  const auto lo = static_cast<std::uint64_t>(std::max(1.0, mean_nnz * 0.5));
  const auto hi = static_cast<std::uint64_t>(
      std::max<double>(lo, std::min(static_cast<double>(dim), mean_nnz * 1.5)));
  const std::uint64_t target =
      lo + (hi > lo ? rng.NextBelow(hi - lo + 1) : 0);

  std::vector<linalg::SparseVector::Index> idx;
  idx.reserve(static_cast<std::size_t>(target) * 2);
  // Rejection until `target` distinct ids (dim >> target in all profiles).
  std::size_t attempts = 0;
  while (idx.size() < target && attempts < static_cast<std::size_t>(target) * 50 + 100) {
    ++attempts;
    idx.push_back(perm[static_cast<std::size_t>(zipf.Sample(rng))]);
    std::sort(idx.begin(), idx.end());
    idx.erase(std::unique(idx.begin(), idx.end()), idx.end());
  }

  std::vector<double> val(idx.size());
  double norm_sq = 0.0;
  for (double& v : val) {
    v = 0.1 + std::fabs(rng.NextGaussian());
    norm_sq += v * v;
  }
  const double inv = norm_sq > 0 ? 1.0 / std::sqrt(norm_sq) : 1.0;
  for (double& v : val) v *= inv;
  return linalg::SparseVector(dim, std::move(idx), std::move(val));
}

}  // namespace

SyntheticDataset GenerateSynthetic(const SyntheticSpec& spec) {
  PSRA_REQUIRE(spec.num_features > 0, "num_features must be positive");
  PSRA_REQUIRE(spec.mean_row_nnz > 0, "mean_row_nnz must be positive");
  PSRA_REQUIRE(spec.label_noise >= 0.0 && spec.label_noise < 0.5,
               "label_noise must be in [0, 0.5)");

  Rng rng(spec.seed);
  const ZipfSampler zipf(spec.num_features, spec.feature_skew);

  // Popularity rank -> feature id: a deterministic shuffle, so popular
  // features are spread over the index space like real datasets.
  std::vector<std::uint64_t> perm(static_cast<std::size_t>(spec.num_features));
  std::iota(perm.begin(), perm.end(), 0);
  rng.Shuffle(perm);

  // Plant a sparse separator over the most popular features so the labels
  // are learnable from the sparse rows.
  std::uint64_t support = spec.true_support != 0
                              ? spec.true_support
                              : std::max<std::uint64_t>(1, spec.num_features / 20);
  support = std::min(support, spec.num_features);
  linalg::DenseVector w_true(static_cast<std::size_t>(spec.num_features), 0.0);
  for (std::uint64_t i = 0; i < support; ++i) {
    w_true[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
        rng.NextGaussian() * 2.0;
  }

  auto make_split = [&](std::uint64_t n) {
    linalg::CsrMatrix::Builder b(spec.num_features);
    std::vector<double> labels;
    labels.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t s = 0; s < n; ++s) {
      const auto row =
          MakeRow(spec.num_features, spec.mean_row_nnz, zipf, perm, rng);
      double margin = row.Dot(w_true);
      double y = margin >= 0 ? 1.0 : -1.0;
      if (rng.NextBool(spec.label_noise)) y = -y;
      b.AddRow(row);
      labels.push_back(y);
    }
    return Dataset(b.Build(), std::move(labels));
  };

  SyntheticDataset out;
  out.train = make_split(spec.num_train);
  out.test = make_split(spec.num_test);
  out.true_weights = std::move(w_true);
  return out;
}

namespace {
std::uint64_t Scaled(std::uint64_t paper_value, double scale,
                     std::uint64_t minimum) {
  const double v = static_cast<double>(paper_value) * scale;
  return std::max<std::uint64_t>(minimum, static_cast<std::uint64_t>(v));
}
}  // namespace

// Paper Table 1: news20 d=1,355,191 train=16,000 test=3,996. news20 rows are
// tf-idf text documents — very skewed feature popularity, ~450 nnz/row in the
// original; we keep that ratio against the scaled dimension.
SyntheticSpec News20Profile(double scale, std::uint64_t seed) {
  PSRA_REQUIRE(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
  SyntheticSpec s;
  s.name = "news20_like";
  s.num_features = Scaled(1355191, scale, 256);
  s.num_train = Scaled(16000, scale, 2048);
  s.num_test = Scaled(3996, scale, 512);
  s.mean_row_nnz = std::max(8.0, 455.0 * std::sqrt(scale));
  s.feature_skew = 1.1;
  s.label_noise = 0.05;
  s.seed = seed;
  return s;
}

// Paper Table 1: webspam d=16,609,143 train=300,000 test=50,000. webspam
// (trigram) is denser per row (~3,700 nnz) with moderate skew.
SyntheticSpec WebspamProfile(double scale, std::uint64_t seed) {
  PSRA_REQUIRE(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
  SyntheticSpec s;
  s.name = "webspam_like";
  s.num_features = Scaled(16609143, scale, 512);
  // Sample counts scale harder (0.01 of 300k is still 3k).
  s.num_train = Scaled(300000, scale * 0.1, 2048);
  s.num_test = Scaled(50000, scale * 0.1, 512);
  s.mean_row_nnz = std::max(16.0, 3700.0 * std::sqrt(scale) * 0.25);
  s.feature_skew = 0.8;
  s.label_noise = 0.03;
  s.seed = seed;
  return s;
}

// Paper Table 1: url d=3,231,961 train=2,000,000 test=396,130. url rows have
// ~115 nnz with strong skew (host/day features dominate).
SyntheticSpec UrlProfile(double scale, std::uint64_t seed) {
  PSRA_REQUIRE(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
  SyntheticSpec s;
  s.name = "url_like";
  s.num_features = Scaled(3231961, scale, 512);
  s.num_train = Scaled(2000000, scale * 0.02, 2048);
  s.num_test = Scaled(396130, scale * 0.02, 512);
  s.mean_row_nnz = std::max(10.0, 115.0 * std::sqrt(scale));
  s.feature_skew = 1.2;
  s.label_noise = 0.04;
  s.seed = seed;
  return s;
}

// The transpose-reduction scenario (DESIGN.md §14): url-style rows (strong
// popularity skew, ~11 nnz/row) over a deliberately small feature dimension
// with the paper's full url row count scaled directly, so every worker's
// shard is tall (rows >> cols) and the TRON x-update takes the Gram Hessian.
// At the default bench scale (0.01) this is 20,000 x 193 — sixteen workers
// still see a 6.5:1 aspect ratio, comfortably past the kAuto threshold.
SyntheticSpec UrlTallProfile(double scale, std::uint64_t seed) {
  PSRA_REQUIRE(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
  SyntheticSpec s;
  s.name = "url_tall";
  s.num_features = Scaled(3231961, scale * 0.006, 128);
  s.num_train = Scaled(2000000, scale, 8192);
  s.num_test = Scaled(396130, scale * 0.1, 512);
  s.mean_row_nnz = std::max(10.0, 115.0 * std::sqrt(scale));
  s.feature_skew = 1.2;
  s.label_noise = 0.04;
  s.seed = seed;
  return s;
}

// Not a paper dataset: a deliberately tiny feature space with a large row
// count, sized so O(10k)-worker smoke runs give every worker a shard while
// the per-iteration algebra stays trivial. Scale only grows the row count.
SyntheticSpec SmokeProfile(double scale, std::uint64_t seed) {
  PSRA_REQUIRE(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
  SyntheticSpec s;
  s.name = "smoke";
  s.num_features = 64;
  s.num_train = Scaled(20480, scale, 2048);
  s.num_test = Scaled(1024, scale, 256);
  s.mean_row_nnz = 4.0;
  s.feature_skew = 1.0;
  s.label_noise = 0.05;
  s.seed = seed;
  return s;
}

SyntheticSpec ProfileByName(const std::string& name, double scale) {
  const std::string n = ToLower(name);
  if (n == "news20" || n == "news20_like") return News20Profile(scale);
  if (n == "webspam" || n == "webspam_like") return WebspamProfile(scale);
  if (n == "url" || n == "url_like") return UrlProfile(scale);
  if (n == "url_tall") return UrlTallProfile(scale);
  if (n == "smoke") return SmokeProfile(scale);
  throw InvalidArgument("unknown dataset profile: " + name);
}

}  // namespace psra::data
