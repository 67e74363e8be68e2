// Synthetic sparse classification datasets.
//
// The paper evaluates on news20, webspam and url (LIBSVM). Those files are
// not redistributable inside this repo, so we generate datasets with matched
// statistical profiles — dimension, per-sample sparsity, skewed feature
// popularity (a few very common features, a long tail), unit-normalized rows
// and learnable ±1 labels from a sparse ground-truth separator. Profiles are
// scaled down (default 1/100 of the paper's dimensions) so that experiments
// complete in a container; the `scale` knob restores larger sizes.
//
// DESIGN.md §2 documents this substitution.
#pragma once

#include <cstdint>
#include <string>

#include "data/dataset.hpp"
#include "support/rng.hpp"

namespace psra::data {

struct SyntheticSpec {
  std::string name = "synthetic";
  std::uint64_t num_features = 1000;
  std::uint64_t num_train = 1000;
  std::uint64_t num_test = 200;
  /// Mean nonzeros per sample (actual count varies ±50%).
  double mean_row_nnz = 20.0;
  /// Zipf exponent for feature popularity (0 = uniform; ~1 = text-like skew).
  double feature_skew = 1.0;
  /// Number of ground-truth active features (0 = 5% of num_features).
  std::uint64_t true_support = 0;
  /// Probability a label is flipped after generation.
  double label_noise = 0.05;
  std::uint64_t seed = 42;
};

/// Generates train+test with one shared ground truth; returns them split.
struct SyntheticDataset {
  Dataset train;
  Dataset test;
  /// The planted separator (dimension num_features).
  linalg::DenseVector true_weights;
};

SyntheticDataset GenerateSynthetic(const SyntheticSpec& spec);

/// Paper dataset profiles (Table 1), scaled by `scale` in (0, 1].
/// scale = 1.0 reproduces the paper's dimensions / sample counts;
/// scale = 0.01 (default used by benches) keeps the same density profile in
/// a container-sized problem.
SyntheticSpec News20Profile(double scale = 0.01, std::uint64_t seed = 42);
SyntheticSpec WebspamProfile(double scale = 0.01, std::uint64_t seed = 43);
SyntheticSpec UrlProfile(double scale = 0.01, std::uint64_t seed = 44);

/// Tall-shard url variant for the transpose-reduction solver path
/// (DESIGN.md §14): url-style rows over a small feature dimension so worker
/// shards are tall (rows >> cols) and kAuto picks the Gram Hessian.
SyntheticSpec UrlTallProfile(double scale = 0.01, std::uint64_t seed = 46);

/// Not from the paper: a 64-feature, many-row profile for O(10k)-worker
/// scale smokes — every worker gets a shard while the algebra stays tiny.
SyntheticSpec SmokeProfile(double scale = 1.0, std::uint64_t seed = 45);

/// Looks up a profile by name: "news20", "webspam", "url" (suffix "_like"
/// accepted) or "smoke". Throws psra::InvalidArgument for unknown names.
SyntheticSpec ProfileByName(const std::string& name, double scale = 0.01);

}  // namespace psra::data
