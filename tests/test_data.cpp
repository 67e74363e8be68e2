// Tests for dataset container, LIBSVM I/O, synthetic generation, partition.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <typeinfo>

#include "data/dataset.hpp"
#include "data/libsvm_io.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "support/status.hpp"

namespace psra::data {
namespace {

Dataset TinyDataset() {
  linalg::CsrMatrix::Builder b(4);
  const linalg::CsrMatrix::Index c0[] = {0, 2};
  const double v0[] = {1.0, -1.5};
  b.AddRow(c0, v0);
  const linalg::CsrMatrix::Index c1[] = {1, 3};
  const double v1[] = {0.5, 2.0};
  b.AddRow(c1, v1);
  const linalg::CsrMatrix::Index c2[] = {0};
  const double v2[] = {3.0};
  b.AddRow(c2, v2);
  return Dataset(b.Build(), {1.0, -1.0, 1.0});
}

// -------------------------------------------------------------- dataset ----

TEST(Dataset, BasicStats) {
  const auto ds = TinyDataset();
  EXPECT_EQ(ds.num_samples(), 3u);
  EXPECT_EQ(ds.num_features(), 4u);
  EXPECT_EQ(ds.nnz(), 5u);
  EXPECT_NEAR(ds.MeanRowNnz(), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(ds.PositiveFraction(), 2.0 / 3.0, 1e-12);
}

TEST(Dataset, RejectsBadLabels) {
  linalg::CsrMatrix::Builder b(2);
  const linalg::CsrMatrix::Index c[] = {0};
  const double v[] = {1.0};
  b.AddRow(c, v);
  EXPECT_THROW(Dataset(b.Build(), {0.5}), InvalidArgument);
}

TEST(Dataset, RejectsLabelCountMismatch) {
  linalg::CsrMatrix::Builder b(2);
  const linalg::CsrMatrix::Index c[] = {0};
  const double v[] = {1.0};
  b.AddRow(c, v);
  EXPECT_THROW(Dataset(b.Build(), {1.0, -1.0}), InvalidArgument);
}

TEST(Dataset, SliceSamples) {
  const auto ds = TinyDataset();
  const auto s = ds.SliceSamples(1, 3);
  EXPECT_EQ(s.num_samples(), 2u);
  EXPECT_EQ(s.labels(), (std::vector<double>{-1.0, 1.0}));
}

TEST(Dataset, SplitPrefix) {
  const auto [train, test] = TinyDataset().Split(2);
  EXPECT_EQ(train.num_samples(), 2u);
  EXPECT_EQ(test.num_samples(), 1u);
}

TEST(Dataset, WithFeatureDimWidens) {
  const auto ds = TinyDataset().WithFeatureDim(10);
  EXPECT_EQ(ds.num_features(), 10u);
  EXPECT_EQ(ds.nnz(), 5u);
  EXPECT_THROW(ds.WithFeatureDim(2), InvalidArgument);
}

TEST(Dataset, ComputeStatsFillsAllFields) {
  const auto s = ComputeStats("tiny", TinyDataset());
  EXPECT_EQ(s.name, "tiny");
  EXPECT_EQ(s.dimension, 4u);
  EXPECT_EQ(s.num_samples, 3u);
  EXPECT_GT(s.density, 0.0);
}

// --------------------------------------------------------------- libsvm ----

TEST(LibsvmIo, ParsesOneBasedIndices) {
  std::istringstream in("+1 1:0.5 3:1.5\n-1 2:2.0\n");
  const auto ds = ReadLibsvm(in);
  EXPECT_EQ(ds.num_samples(), 2u);
  EXPECT_EQ(ds.num_features(), 3u);
  EXPECT_DOUBLE_EQ(ds.features().Row(0).At(0), 0.5);
  EXPECT_DOUBLE_EQ(ds.features().Row(0).At(2), 1.5);
  EXPECT_DOUBLE_EQ(ds.features().Row(1).At(1), 2.0);
  EXPECT_EQ(ds.labels(), (std::vector<double>{1.0, -1.0}));
}

TEST(LibsvmIo, MapsMulticlassLabelsToBinary) {
  std::istringstream in("3 1:1\n0 1:1\n-2 1:1\n");
  const auto ds = ReadLibsvm(in);
  EXPECT_EQ(ds.labels(), (std::vector<double>{1.0, -1.0, -1.0}));
}

TEST(LibsvmIo, RespectsMaxSamplesAndFeatureDim) {
  std::istringstream in("+1 1:1\n-1 2:1\n+1 3:1\n");
  LibsvmReadOptions opt;
  opt.max_samples = 2;
  opt.feature_dim = 10;
  const auto ds = ReadLibsvm(in, opt);
  EXPECT_EQ(ds.num_samples(), 2u);
  EXPECT_EQ(ds.num_features(), 10u);
}

TEST(LibsvmIo, RejectsMalformedTokens) {
  std::istringstream a("+1 1-0.5\n");
  EXPECT_THROW(ReadLibsvm(a), InvalidArgument);
  std::istringstream b("+1 0:1\n");  // 0 is invalid in 1-based format
  EXPECT_THROW(ReadLibsvm(b), InvalidArgument);
  std::istringstream c("+1 2:1 1:1\n");  // out of order
  EXPECT_THROW(ReadLibsvm(c), InvalidArgument);
}

TEST(LibsvmIo, RejectsNonFiniteTokens) {
  // std::from_chars parses these spellings, so the reader must refuse them
  // itself, naming the offending line.
  for (const char* text :
       {"+1 1:nan\n", "+1 1:inf\n", "-1 2:-inf\n", "nan 1:1\n",
        "inf 1:1\n", "+1 1:0.5\n-inf 2:1\n", "+1 1:1 2:+nan\n"}) {
    std::istringstream in(text);
    try {
      ReadLibsvm(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
          << e.what();
    }
  }
}

TEST(LibsvmIo, ByteMutantsParseCleanlyOrThrowInvalidArgument) {
  // Deterministic mutation fuzzing: byte-level mutants of a small valid
  // file either load as a well-formed dataset or are rejected with
  // InvalidArgument — never another exception type, never a crash.
  const std::string seed_file =
      "+1 1:0.5 3:1.5 7:-2\n-1 2:2.0 4:1e-3\n+1 1:1 2:1 3:1\n"
      "-1 5:0.25 6:+3\n0 9:7\n";
  static constexpr char kAlphabet[] = "0123456789+-.:eEnaifINF \t\n\r";
  std::mt19937_64 rng(20240611);  // engine output is fixed by the standard
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  std::size_t parsed = 0, rejected = 0;
  for (int mutant = 0; mutant < 4000; ++mutant) {
    std::string text = seed_file;
    const std::size_t edits = 1 + pick(3);
    for (std::size_t e = 0; e < edits; ++e) {
      const char c = pick(4) == 0
                         ? static_cast<char>(pick(256))
                         : kAlphabet[pick(sizeof(kAlphabet) - 1)];
      switch (pick(3)) {
        case 0:  // replace
          text[pick(text.size())] = c;
          break;
        case 1:  // insert
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                         pick(text.size() + 1)),
                      c);
          break;
        default:  // delete
          if (text.size() > 1) {
            text.erase(text.begin() +
                       static_cast<std::ptrdiff_t>(pick(text.size())));
          }
      }
    }
    std::istringstream in(text);
    try {
      const Dataset ds = ReadLibsvm(in);
      ++parsed;
      const auto& m = ds.features();
      ASSERT_EQ(ds.labels().size(), ds.num_samples()) << text;
      for (std::uint64_t r = 0; r < ds.num_samples(); ++r) {
        const double y = ds.labels()[static_cast<std::size_t>(r)];
        ASSERT_TRUE(y == 1.0 || y == -1.0) << text;
        const auto idx = m.RowIndices(r);
        const auto val = m.RowValues(r);
        for (std::size_t k = 0; k < idx.size(); ++k) {
          ASSERT_TRUE(std::isfinite(val[k])) << text;
          ASSERT_LT(idx[k], ds.num_features()) << text;
          if (k > 0) {
            ASSERT_LT(idx[k - 1], idx[k]) << text;
          }
        }
      }
    } catch (const InvalidArgument&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "unexpected " << typeid(e).name() << " (" << e.what()
             << ") on mutant:\n" << text;
    }
  }
  // Both outcomes must actually occur, or the mutator is not exercising
  // the reader.
  EXPECT_GT(parsed, 100u) << rejected << " rejected";
  EXPECT_GT(rejected, 100u) << parsed << " parsed";
}

TEST(LibsvmIo, WriteReadRoundTrip) {
  const auto ds = TinyDataset();
  std::ostringstream out;
  WriteLibsvm(ds, out);
  std::istringstream in(out.str());
  LibsvmReadOptions opt;
  opt.feature_dim = ds.num_features();
  const auto back = ReadLibsvm(in, opt);
  ASSERT_EQ(back.num_samples(), ds.num_samples());
  EXPECT_EQ(back.labels(), ds.labels());
  for (std::uint64_t r = 0; r < ds.num_samples(); ++r) {
    const auto a = ds.features().Row(r).ToDense();
    const auto b = back.features().Row(r).ToDense();
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-7);
  }
}

TEST(LibsvmIo, MissingFileThrows) {
  EXPECT_THROW(ReadLibsvmFile("/nonexistent/path.svm"), IoError);
}

// ------------------------------------------------------------ synthetic ----

TEST(Synthetic, GeneratesRequestedShape) {
  SyntheticSpec spec;
  spec.num_features = 200;
  spec.num_train = 150;
  spec.num_test = 50;
  spec.mean_row_nnz = 10.0;
  const auto gen = GenerateSynthetic(spec);
  EXPECT_EQ(gen.train.num_samples(), 150u);
  EXPECT_EQ(gen.test.num_samples(), 50u);
  EXPECT_EQ(gen.train.num_features(), 200u);
  EXPECT_EQ(gen.true_weights.size(), 200u);
}

TEST(Synthetic, RowNnzNearTarget) {
  SyntheticSpec spec;
  spec.num_features = 1000;
  spec.num_train = 200;
  spec.num_test = 10;
  spec.mean_row_nnz = 20.0;
  const auto gen = GenerateSynthetic(spec);
  // Row nnz is drawn from [0.5, 1.5] * mean (minus collision loss).
  EXPECT_GT(gen.train.MeanRowNnz(), 8.0);
  EXPECT_LT(gen.train.MeanRowNnz(), 32.0);
}

TEST(Synthetic, DeterministicForSeed) {
  SyntheticSpec spec;
  spec.num_features = 100;
  spec.num_train = 50;
  spec.num_test = 10;
  spec.seed = 99;
  const auto a = GenerateSynthetic(spec);
  const auto b = GenerateSynthetic(spec);
  EXPECT_EQ(a.train.labels(), b.train.labels());
  EXPECT_EQ(a.train.nnz(), b.train.nnz());
}

TEST(Synthetic, RowsAreUnitNormalized) {
  SyntheticSpec spec;
  spec.num_features = 300;
  spec.num_train = 30;
  spec.num_test = 5;
  const auto gen = GenerateSynthetic(spec);
  for (std::uint64_t r = 0; r < gen.train.num_samples(); ++r) {
    EXPECT_NEAR(gen.train.features().Row(r).Norm2(), 1.0, 1e-9);
  }
}

TEST(Synthetic, LabelsFollowPlantedSeparatorMostly) {
  SyntheticSpec spec;
  spec.num_features = 500;
  spec.num_train = 400;
  spec.num_test = 10;
  spec.label_noise = 0.0;
  const auto gen = GenerateSynthetic(spec);
  std::size_t agree = 0;
  for (std::uint64_t r = 0; r < gen.train.num_samples(); ++r) {
    const double margin = gen.train.features().Row(r).Dot(gen.true_weights);
    const double pred = margin >= 0 ? 1.0 : -1.0;
    if (pred == gen.train.labels()[static_cast<std::size_t>(r)]) ++agree;
  }
  EXPECT_EQ(agree, gen.train.num_samples());
}

TEST(Synthetic, ProfilesMatchPaperRatios) {
  const auto news = News20Profile(0.01);
  EXPECT_EQ(news.num_features, 13551u);
  // 0.01 * 16000 = 160 is below the container floor of 2048 samples.
  EXPECT_EQ(news.num_train, 2048u);
  const auto web = WebspamProfile(0.01);
  EXPECT_EQ(web.num_features, 166091u);
  const auto url = UrlProfile(0.01);
  EXPECT_EQ(url.num_features, 32319u);
}

TEST(Synthetic, ProfileByNameAcceptsAliases) {
  EXPECT_EQ(ProfileByName("news20").name, "news20_like");
  EXPECT_EQ(ProfileByName("webspam_like").name, "webspam_like");
  EXPECT_EQ(ProfileByName("URL").name, "url_like");
  EXPECT_THROW(ProfileByName("mnist"), InvalidArgument);
}

TEST(Synthetic, InvalidSpecsThrow) {
  SyntheticSpec s;
  s.label_noise = 0.7;
  EXPECT_THROW(GenerateSynthetic(s), InvalidArgument);
  EXPECT_THROW(News20Profile(0.0), InvalidArgument);
  EXPECT_THROW(News20Profile(1.5), InvalidArgument);
}

// ------------------------------------------------------------ partition ----

TEST(Partition, ContiguousBoundsCoverAllSamples) {
  const auto b = ContiguousBounds(10, 3);
  EXPECT_EQ(b, (std::vector<std::uint64_t>{0, 3, 6, 10}));
}

class PartitionProperty
    : public ::testing::TestWithParam<std::tuple<int, PartitionScheme>> {};

TEST_P(PartitionProperty, ShardsAreDisjointCover) {
  const auto [parts, scheme] = GetParam();
  SyntheticSpec spec;
  spec.num_features = 50;
  spec.num_train = 37;
  spec.num_test = 5;
  const auto gen = GenerateSynthetic(spec);
  const auto shards = Partition(gen.train, static_cast<std::uint64_t>(parts),
                                scheme);
  ASSERT_EQ(shards.size(), static_cast<std::size_t>(parts));

  std::uint64_t total = 0;
  std::size_t total_nnz = 0;
  std::uint64_t min_size = UINT64_MAX, max_size = 0;
  for (const auto& s : shards) {
    total += s.num_samples();
    total_nnz += s.nnz();
    min_size = std::min(min_size, s.num_samples());
    max_size = std::max(max_size, s.num_samples());
    EXPECT_EQ(s.num_features(), gen.train.num_features());
  }
  EXPECT_EQ(total, gen.train.num_samples());
  EXPECT_EQ(total_nnz, gen.train.nnz());
  EXPECT_LE(max_size - min_size, 1u);  // balanced
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, PartitionProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 7, 37),
                       ::testing::Values(PartitionScheme::kContiguous,
                                         PartitionScheme::kStriped)));

TEST(Partition, StripedAssignsRoundRobin) {
  const auto ds = TinyDataset();
  const auto shards = Partition(ds, 2, PartitionScheme::kStriped);
  EXPECT_EQ(shards[0].num_samples(), 2u);  // rows 0, 2
  EXPECT_EQ(shards[1].num_samples(), 1u);  // row 1
  EXPECT_EQ(shards[0].labels(), (std::vector<double>{1.0, 1.0}));
}

TEST(Partition, ZeroPartsThrows) {
  EXPECT_THROW(Partition(TinyDataset(), 0), InvalidArgument);
}

}  // namespace
}  // namespace psra::data
