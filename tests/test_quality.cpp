// Quality-metric unit tests (ARI / NMI / noise ratio / histogram /
// checksum against hand-computed references) and the golden-label corpus:
// every execution surface (one-shot, warm engine, pool, sharded, streaming,
// serving, persisted round-trip) x every metric (L2, L1, Linf) must
// reproduce the pinned ground-truth labels of tests/data/ *verbatim* — same
// partition, same first-appearance ids, same FNV-1a label checksum.
//
// The corpus geometry makes one .labels file the truth under all three
// metrics (see tests/data/README.md), so a label flip anywhere in the
// metric-specific grid math, kernels, or any serving surface fails here
// with a dataset name attached.
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/io.h"
#include "dbscan/verify.h"
#include "pdbscan/pdbscan.h"
#include "testing_util.h"

namespace pdbscan {
namespace {

using dbscan::BruteForceDbscan;
using dbscan::SameClustering;
using pdbscan::testing::ExpectIdentical;

// --- Hand-computed references ----------------------------------------------
//
// a = {0,0,1,1,1}, b = {0,0,0,1,1}. Contingency: n00=2, n10=1, n11=2.
// Pair sums: cells C(2,2)+C(1,2)+C(2,2) = 2; rows C(2,2)+C(3,2) = 4;
// cols C(3,2)+C(2,2) = 4; C(5,2) = 10.
// ARI = (2 - 4*4/10) / (4 - 4*4/10) = 0.4 / 2.4 = 1/6.
// H(a) = H(b) = -(2/5)ln(2/5) - (3/5)ln(3/5).
// MI = (2/5)ln(5*2/(2*3)) + (1/5)ln(5*1/(3*3)) + (2/5)ln(5*2/(3*2)).
// NMI = MI / ((H(a)+H(b))/2) = MI / H.

TEST(QualityMetrics, AdjustedRandIndexHandComputed) {
  const std::vector<int64_t> a = {0, 0, 1, 1, 1};
  const std::vector<int64_t> b = {0, 0, 0, 1, 1};
  EXPECT_NEAR(quality::AdjustedRandIndex(a, b), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(quality::AdjustedRandIndex(b, a), 1.0 / 6.0, 1e-12);

  // Identical partitions under different label values: exactly 1.
  const std::vector<int64_t> relabeled = {5, 5, 7, 7, 7};
  EXPECT_EQ(quality::AdjustedRandIndex(a, relabeled), 1.0);

  // One cluster vs all-singletons: expected index == index == 0.
  const std::vector<int64_t> one(4, 0);
  const std::vector<int64_t> singletons = {0, 1, 2, 3};
  EXPECT_NEAR(quality::AdjustedRandIndex(one, singletons), 0.0, 1e-12);

  // Both partitions trivial (degenerate denominator): 1 by convention.
  EXPECT_EQ(quality::AdjustedRandIndex(one, one), 1.0);
  EXPECT_EQ(quality::AdjustedRandIndex(singletons, singletons), 1.0);
}

TEST(QualityMetrics, NoiseIsARegularLabel) {
  // Noise (-1) counts as one ordinary cluster for agreement purposes:
  // partitions {{0,1},{2,3}} under both labelings, hence ARI/NMI == 1.
  const std::vector<int64_t> a = {-1, -1, 0, 0};
  const std::vector<int64_t> b = {1, 1, 0, 0};
  EXPECT_EQ(quality::AdjustedRandIndex(a, b), 1.0);
  EXPECT_NEAR(quality::NormalizedMutualInfo(a, b), 1.0, 1e-12);
}

TEST(QualityMetrics, NormalizedMutualInfoHandComputed) {
  const std::vector<int64_t> a = {0, 0, 1, 1, 1};
  const std::vector<int64_t> b = {0, 0, 0, 1, 1};
  const double h = -(0.4 * std::log(0.4) + 0.6 * std::log(0.6));
  const double mi = 0.4 * std::log(10.0 / 6.0) +
                    0.2 * std::log(5.0 / 9.0) +
                    0.4 * std::log(10.0 / 6.0);
  EXPECT_NEAR(quality::MutualInfo(a, b), mi, 1e-12);
  EXPECT_NEAR(quality::LabelEntropy(a), h, 1e-12);
  EXPECT_NEAR(quality::NormalizedMutualInfo(a, b), mi / h, 1e-12);

  // Zero-information side: NMI is 0, not NaN.
  const std::vector<int64_t> one(5, 3);
  EXPECT_EQ(quality::NormalizedMutualInfo(one, b), 0.0);
  // Both sides trivial: 1 by convention.
  EXPECT_EQ(quality::NormalizedMutualInfo(one, one), 1.0);
}

TEST(QualityMetrics, NoiseRatioAndHistogram) {
  const std::vector<int64_t> labels = {0, 0, 0, 1, 1, 2, -1};
  EXPECT_NEAR(quality::NoiseRatio(labels), 1.0 / 7.0, 1e-15);
  EXPECT_EQ(quality::NoiseRatio(std::vector<int64_t>{}), 0.0);
  // Sizes 3, 2, 1 -> bucket 0 ([1,2)): one cluster; bucket 1 ([2,4)): two.
  const std::vector<size_t> expected = {1, 2};
  EXPECT_EQ(quality::ClusterSizeHistogram(labels), expected);
  EXPECT_TRUE(quality::ClusterSizeHistogram(std::vector<int64_t>(3, -1))
                  .empty());
}

TEST(QualityMetrics, LabelChecksumPinsContent) {
  // Empty input: the FNV-1a offset basis, pinned.
  EXPECT_EQ(quality::LabelChecksum(std::vector<int64_t>{}),
            1469598103934665603ull);
  const std::vector<int64_t> a = {0, 1, -1};
  std::vector<int64_t> flipped = a;
  flipped[1] = 2;
  EXPECT_NE(quality::LabelChecksum(a), quality::LabelChecksum(flipped));
  // Order matters (it is a label VECTOR checksum, not a set hash).
  const std::vector<int64_t> swapped = {1, 0, -1};
  EXPECT_NE(quality::LabelChecksum(a), quality::LabelChecksum(swapped));
}

TEST(QualityMetrics, MismatchedLengthsThrow) {
  const std::vector<int64_t> a = {0, 0};
  const std::vector<int64_t> b = {0, 0, 0};
  EXPECT_THROW(quality::AdjustedRandIndex(a, b), std::invalid_argument);
  EXPECT_THROW(quality::EvaluateQuality(a, b), std::invalid_argument);
}

TEST(QualityMetrics, EvaluateQualityReport) {
  const std::vector<int64_t> predicted = {0, 0, 1, 1, -1};
  const std::vector<int64_t> truth = {0, 0, 1, 1, -1};
  const QualityReport q = quality::EvaluateQuality(predicted, truth);
  EXPECT_EQ(q.n, 5u);
  EXPECT_EQ(q.predicted_clusters, 2u);
  EXPECT_EQ(q.truth_clusters, 2u);
  EXPECT_EQ(q.ari, 1.0);
  EXPECT_NEAR(q.nmi, 1.0, 1e-12);
  EXPECT_NEAR(q.predicted_noise_ratio, 0.2, 1e-15);
  EXPECT_EQ(q.label_checksum, quality::LabelChecksum(predicted));
}

// --- Golden corpus: every mode x metric pins the ground-truth labels. ------

constexpr double kEps = 1.0;
constexpr size_t kMinPts = 3;
constexpr size_t kCap = 64;

std::string DataPath(const std::string& name, const std::string& ext) {
  return std::string(PDBSCAN_TEST_DATA_DIR) + "/" + name + ext;
}

template <int D>
void CheckGoldenDataset(const std::string& name) {
  const data::FlatDataset dataset = data::ReadCsv(DataPath(name, ".csv"));
  ASSERT_EQ(dataset.dim, D) << name;
  const std::vector<Point<D>> pts = data::FromFlat<D>(dataset);
  const std::vector<int64_t> truth = ReadLabelsFile(DataPath(name, ".labels"));
  ASSERT_EQ(truth.size(), pts.size()) << name;

  for (const Metric metric : {Metric::kL2, Metric::kL1, Metric::kLinf}) {
    Options options = OurExact();
    options.metric = metric;
    const std::string context =
        name + " metric=" + MetricName(metric);

    // One-shot (reference surface): labels must equal the pinned truth
    // verbatim — same partition AND same first-appearance ids.
    const Clustering reference = Dbscan<D>(pts, kEps, kMinPts, options);
    EXPECT_EQ(reference.cluster, truth) << context;
    const uint64_t checksum = quality::LabelChecksum(reference.cluster);
    EXPECT_EQ(checksum, quality::LabelChecksum(truth)) << context;

    // Against the O(n^2) oracle under the same metric.
    const Clustering oracle =
        BruteForceDbscan<D>(std::span<const Point<D>>(pts), kEps, kMinPts,
                            metric);
    EXPECT_TRUE(SameClustering(oracle, reference)) << context;

    // The in-library metrics grade the exact run as perfect.
    const QualityReport q = EvaluateQuality(
        reference, std::span<const int64_t>(truth));
    EXPECT_EQ(q.ari, 1.0) << context;
    EXPECT_NEAR(q.nmi, 1.0, 1e-12) << context;
    EXPECT_EQ(q.label_checksum, checksum) << context;

    // Warm engine: a cached index at another epsilon (small enough that its
    // labels differ, so a stale index fails here), then kEps built at a cap
    // below kMinPts, a query above that cap (the context's recount), and
    // finally kMinPts served from that recount.
    {
      DbscanEngine<D> engine(options);
      engine.SetPoints(pts);
      (void)engine.Run(kEps / 4, kMinPts);
      (void)engine.Run(kEps, kMinPts - 1);
      (void)engine.Run(kEps, kMinPts + 2);
      const Clustering got = engine.Run(kEps, kMinPts);
      EXPECT_EQ(got.cluster, truth) << context << " mode=engine";
      ExpectIdentical(reference, got, context + " mode=engine");
    }

    // Pool: frozen CellIndex served through an EnginePool.
    {
      auto index = CellIndex<D>::Build(pts, kEps, kCap, options);
      EnginePool<D> pool(index);
      const Clustering got = pool.Run(kMinPts);
      ExpectIdentical(reference, got, context + " mode=pool");
      EXPECT_EQ(quality::LabelChecksum(got.cluster), checksum)
          << context << " mode=pool";
    }

    // Sharded build (3 slabs, boundary merge).
    {
      ShardedClusterer<D> sharded(pts, kEps, kCap, /*num_shards=*/3,
                                  options);
      const Clustering got = sharded.Run(kMinPts);
      ExpectIdentical(reference, got, context + " mode=sharded");
      EXPECT_EQ(quality::LabelChecksum(got.cluster), checksum)
          << context << " mode=sharded";
    }

    // Streaming: the dataset arrives as two insert batches.
    {
      StreamingClusterer<D> stream(kEps, kCap, options);
      const size_t half = pts.size() / 2;
      stream.Insert(std::span<const Point<D>>(pts.data(), half));
      stream.Insert(
          std::span<const Point<D>>(pts.data() + half, pts.size() - half));
      const Clustering got = stream.Run(kMinPts);
      ExpectIdentical(reference, got, context + " mode=streaming");
      EXPECT_EQ(quality::LabelChecksum(got.cluster), checksum)
          << context << " mode=streaming";
    }

    // Serving: a ServingScheduler in front of a pool.
    {
      auto index = CellIndex<D>::Build(pts, kEps, kCap, options);
      EnginePool<D> pool(index);
      ServingScheduler<D> server(pool);
      ServeResult r = server.Submit(kMinPts);
      ASSERT_TRUE(r.ok()) << context << " mode=serving";
      ExpectIdentical(reference, r.clustering, context + " mode=serving");
      EXPECT_EQ(quality::LabelChecksum(r.clustering.cluster), checksum)
          << context << " mode=serving";
    }

    // Persisted round-trip: save the frozen index, load, query.
    {
      const std::string path = ::testing::TempDir() + "golden_" + name +
                               "_" + MetricName(metric) + ".pdbsnap";
      auto index = CellIndex<D>::Build(pts, kEps, kCap, options);
      SaveIndex<D>(path, *index);
      auto loaded = LoadIndex<D>(path);
      EXPECT_EQ(loaded->options().metric, metric) << context;
      QueryContext<D> ctx;
      const Clustering got = ctx.Run(loaded, kMinPts);
      ExpectIdentical(reference, got, context + " mode=persist");
      EXPECT_EQ(quality::LabelChecksum(got.cluster), checksum)
          << context << " mode=persist";
      std::filesystem::remove(path);
    }
  }
}

TEST(GoldenCorpus, TwoBlobs2d) { CheckGoldenDataset<2>("two_blobs_2d"); }
TEST(GoldenCorpus, Chain2d) { CheckGoldenDataset<2>("chain_2d"); }
TEST(GoldenCorpus, GridNoise2d) { CheckGoldenDataset<2>("grid_noise_2d"); }
TEST(GoldenCorpus, ThreeLines2d) { CheckGoldenDataset<2>("three_lines_2d"); }
TEST(GoldenCorpus, TwoBlobs3d) { CheckGoldenDataset<3>("two_blobs_3d"); }

TEST(GoldenCorpus, LabelsFileParserSkipsCommentsAndBlanks) {
  const std::string path = ::testing::TempDir() + "labels_parse_test.labels";
  {
    std::ofstream out(path);
    out << "# comment\n\n  3\n-1\n # indented comment\n7\n";
  }
  const std::vector<int64_t> labels = ReadLabelsFile(path);
  const std::vector<int64_t> expected = {3, -1, 7};
  EXPECT_EQ(labels, expected);
  std::filesystem::remove(path);

  EXPECT_THROW(ReadLabelsFile(path + ".missing"), std::runtime_error);
}

}  // namespace
}  // namespace pdbscan
