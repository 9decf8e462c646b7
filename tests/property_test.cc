// Randomized property suites: Monte-Carlo cross-checks of the histogram
// machinery and the chain estimator on generated models. These guard the
// algebra (mass conservation, additivity, exactness on decomposable
// models) across a seed sweep rather than on hand-picked cases.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/chain_estimator.h"
#include "hist/greedy_merge.h"
#include "hist/histogram1d.h"
#include "hist/histogram_nd.h"

namespace pcde {
namespace {

using core::Decomposition;
using core::DecompositionPart;
using core::InstantiatedVariable;
using hist::Bucket;
using hist::Histogram1D;
using hist::HistogramND;

/// Random disjoint-bucket histogram with up to `max_buckets` buckets.
Histogram1D RandomHistogram(Rng* rng, int max_buckets = 6) {
  const int n = 1 + static_cast<int>(rng->UniformInt(0, max_buckets - 1));
  std::vector<Bucket> buckets;
  double lo = rng->Uniform(0, 50);
  std::vector<double> masses;
  double total = 0;
  for (int i = 0; i < n; ++i) {
    const double w = rng->Uniform(1, 20);
    buckets.emplace_back(lo, lo + w, 0.0);
    lo += w + rng->Uniform(0, 10);  // possible gap
    masses.push_back(rng->Uniform(0.05, 1.0));
    total += masses.back();
  }
  for (int i = 0; i < n; ++i) buckets[i].prob = masses[i] / total;
  auto h = Histogram1D::Make(std::move(buckets));
  EXPECT_TRUE(h.ok());
  return std::move(h).value();
}

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

// ---------------------------------------------------------------------------
// Convolution vs Monte Carlo
// ---------------------------------------------------------------------------

TEST_P(SeedSweep, ConvolutionMatchesMonteCarlo) {
  Rng rng(GetParam());
  const Histogram1D a = RandomHistogram(&rng);
  const Histogram1D b = RandomHistogram(&rng);
  auto conv = hist::Convolve(a, b, 128);
  ASSERT_TRUE(conv.ok());
  // Sample sums and compare the CDF at several probes.
  const int n = 20000;
  std::vector<double> sums(n);
  for (int i = 0; i < n; ++i) sums[i] = a.Sample(&rng) + b.Sample(&rng);
  std::sort(sums.begin(), sums.end());
  // Bucket-level convolution flattens each pairwise Minkowski sum
  // uniformly; against the true (triangular-within-box) sums the CDF can
  // deviate by up to ~12.5% of a box's mass — the method's documented
  // approximation, not an implementation error.
  for (double q : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double x = sums[static_cast<size_t>(q * (n - 1))];
    EXPECT_NEAR(conv.value().Cdf(x), q, 0.14)
        << "quantile " << q << " seed " << GetParam();
  }
  EXPECT_NEAR(conv.value().Mean(), a.Mean() + b.Mean(), 1e-6);
}

// ---------------------------------------------------------------------------
// SumDistribution vs Monte Carlo on random joints
// ---------------------------------------------------------------------------

HistogramND RandomJoint(Rng* rng, size_t dims) {
  std::vector<std::vector<double>> bounds(dims);
  std::vector<size_t> counts(dims);
  for (size_t d = 0; d < dims; ++d) {
    const size_t nb = 1 + static_cast<size_t>(rng->UniformInt(0, 2));
    counts[d] = nb;
    double lo = rng->Uniform(0, 30);
    bounds[d].push_back(lo);
    for (size_t i = 0; i < nb; ++i) {
      lo += rng->Uniform(2, 25);
      bounds[d].push_back(lo);
    }
  }
  // Random positive mass on a random subset of cells (always include one).
  std::vector<HistogramND::HyperBucket> hbs;
  double total = 0;
  std::vector<uint32_t> idx(dims, 0);
  // Enumerate all cells; keep each with probability 0.7.
  size_t cells = 1;
  for (size_t d = 0; d < dims; ++d) cells *= counts[d];
  for (size_t c = 0; c < cells; ++c) {
    size_t rest = c;
    for (size_t d = 0; d < dims; ++d) {
      idx[d] = static_cast<uint32_t>(rest % counts[d]);
      rest /= counts[d];
    }
    if (!hbs.empty() && !rng->Bernoulli(0.7)) continue;
    const double mass = rng->Uniform(0.05, 1.0);
    hbs.push_back({idx, mass});
    total += mass;
  }
  for (auto& hb : hbs) hb.prob /= total;
  auto h = HistogramND::Make(std::move(bounds), std::move(hbs));
  EXPECT_TRUE(h.ok());
  return std::move(h).value();
}

double SampleJointSum(const HistogramND& joint, Rng* rng) {
  double u = rng->Uniform();
  const auto& hbs = joint.buckets();
  size_t pick = hbs.size() - 1;
  for (size_t i = 0; i < hbs.size(); ++i) {
    if (u < hbs[i].prob) {
      pick = i;
      break;
    }
    u -= hbs[i].prob;
  }
  double sum = 0;
  for (size_t d = 0; d < joint.NumDims(); ++d) {
    const Interval box = joint.Box(hbs[pick], d);
    sum += rng->Uniform(box.lo, box.hi);
  }
  return sum;
}

TEST_P(SeedSweep, SumDistributionMatchesMonteCarlo) {
  Rng rng(GetParam() * 31 + 7);
  const size_t dims = 2 + static_cast<size_t>(rng.UniformInt(0, 1));
  const HistogramND joint = RandomJoint(&rng, dims);
  auto sum = joint.SumDistribution(128);
  ASSERT_TRUE(sum.ok());
  const int n = 20000;
  std::vector<double> sums(n);
  double mc_mean = 0.0;
  for (int i = 0; i < n; ++i) {
    sums[i] = SampleJointSum(joint, &rng);
    mc_mean += sums[i];
  }
  mc_mean /= n;
  std::sort(sums.begin(), sums.end());
  // The mean of the Sec. 4.2 reduction is exact (bucket midpoints).
  EXPECT_NEAR(sum.value().Mean(), mc_mean, 0.6) << "seed " << GetParam();
  // The CDF carries the uniform-within-bucket approximation: the true
  // within-box sum is Irwin-Hall-shaped, so mid-bucket deviations up to
  // ~20% of a bucket's mass (3 dims) are inherent to the paper's
  // reduction.
  for (double q : {0.2, 0.5, 0.8}) {
    const double x = sums[static_cast<size_t>(q * (n - 1))];
    EXPECT_NEAR(sum.value().Cdf(x), q, 0.2) << "seed " << GetParam();
  }
  // Support bounds are exact.
  EXPECT_GE(sums.front(), sum.value().Min() - 1e-9);
  EXPECT_LE(sums.back(), sum.value().Max() + 1e-9);
}

// ---------------------------------------------------------------------------
// Chain estimator exactness on random decomposable models
// ---------------------------------------------------------------------------

TEST_P(SeedSweep, ChainExactOnRandomDecomposableModel) {
  Rng rng(GetParam() * 97 + 13);
  // Random p(a,b) and p(c|b) over 2-3 buckets per dim with shared
  // b-boundaries; the truth p(a,b,c) = p(a,b) p(c|b) is decomposable with
  // separator b, so the chain estimate from the pair marginals is exact.
  const size_t na = 2, nb = 2, nc = 3;
  auto make_bounds = [&](size_t n, double start) {
    std::vector<double> bounds{start};
    for (size_t i = 0; i < n; ++i) bounds.push_back(bounds.back() + rng.Uniform(3, 20));
    return bounds;
  };
  const auto ba = make_bounds(na, rng.Uniform(0, 10));
  const auto bb = make_bounds(nb, rng.Uniform(0, 10));
  const auto bc = make_bounds(nc, rng.Uniform(0, 10));

  // Random p(a,b).
  std::vector<double> pab(na * nb);
  double total = 0;
  for (double& p : pab) {
    p = rng.Uniform(0.05, 1.0);
    total += p;
  }
  for (double& p : pab) p /= total;
  // Random p(c|b) rows.
  std::vector<double> pcb(nb * nc);
  for (size_t b = 0; b < nb; ++b) {
    double row = 0;
    for (size_t c = 0; c < nc; ++c) {
      pcb[b * nc + c] = rng.Uniform(0.05, 1.0);
      row += pcb[b * nc + c];
    }
    for (size_t c = 0; c < nc; ++c) pcb[b * nc + c] /= row;
  }

  std::vector<HistogramND::HyperBucket> truth3, h12, h23;
  std::vector<double> pb(nb, 0.0);
  for (size_t a = 0; a < na; ++a) {
    for (size_t b = 0; b < nb; ++b) {
      pb[b] += pab[a * nb + b];
      h12.push_back({{static_cast<uint32_t>(a), static_cast<uint32_t>(b)},
                     pab[a * nb + b]});
      for (size_t c = 0; c < nc; ++c) {
        truth3.push_back({{static_cast<uint32_t>(a), static_cast<uint32_t>(b),
                           static_cast<uint32_t>(c)},
                          pab[a * nb + b] * pcb[b * nc + c]});
      }
    }
  }
  for (size_t b = 0; b < nb; ++b) {
    for (size_t c = 0; c < nc; ++c) {
      h23.push_back({{static_cast<uint32_t>(b), static_cast<uint32_t>(c)},
                     pb[b] * pcb[b * nc + c]});
    }
  }

  InstantiatedVariable v12, v23;
  v12.path = roadnet::Path({1, 2});
  v12.joint = HistogramND::Make({ba, bb}, h12).value();
  v23.path = roadnet::Path({2, 3});
  v23.joint = HistogramND::Make({bb, bc}, h23).value();
  const HistogramND truth = HistogramND::Make({ba, bb, bc}, truth3).value();

  const Decomposition de = {DecompositionPart{&v12, 0},
                            DecompositionPart{&v23, 1}};
  core::ChainOptions options;
  options.max_result_buckets = 256;
  auto est = core::EstimateFromDecomposition(de, options);
  ASSERT_TRUE(est.ok());
  auto expected = truth.SumDistribution(256);
  ASSERT_TRUE(expected.ok());
  EXPECT_LT(hist::L1Distance(est.value(), expected.value()), 1e-9)
      << "seed " << GetParam();
}

// ---------------------------------------------------------------------------
// GreedyMergeToCap: mass and mean conservation under aggressive merging
// ---------------------------------------------------------------------------

TEST_P(SeedSweep, GreedyMergeConservesMassAndMean) {
  Rng rng(GetParam() * 7 + 3);
  const Histogram1D h = RandomHistogram(&rng, 6);
  for (size_t cap : {1, 2, 3}) {
    std::vector<Bucket> bs = h.buckets();
    hist::GreedyMergeScratch scratch;
    hist::GreedyMergeToCap(&bs, cap, &scratch);
    const Histogram1D c = Histogram1D::Make(std::move(bs)).value();
    EXPECT_LE(c.NumBuckets(), cap);
    double total = 0;
    for (const auto& b : c.buckets()) total += b.prob;
    EXPECT_NEAR(total, 1.0, 1e-9);
    // Merging across gaps moves mass within the merged span; the mean may
    // shift but must stay inside the support hull.
    EXPECT_GE(c.Mean(), h.Min() - 1e-9);
    EXPECT_LE(c.Mean(), h.Max() + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// KL: non-negative and zero only at equality (up to smoothing)
// ---------------------------------------------------------------------------

TEST_P(SeedSweep, KlNonNegativeOnRandomPairs) {
  Rng rng(GetParam() * 11 + 5);
  const Histogram1D p = RandomHistogram(&rng);
  const Histogram1D q = RandomHistogram(&rng);
  EXPECT_GE(hist::KlDivergence(p, q), 0.0);
  // Self-divergence is bounded by the epsilon smoothing (1e-6 of mass
  // redistributed), not exactly zero.
  EXPECT_NEAR(hist::KlDivergence(p, p), 0.0, 2e-5);
  EXPECT_NEAR(hist::KlDivergence(q, q), 0.0, 2e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace pcde
