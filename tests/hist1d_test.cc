// Unit tests for Histogram1D and the Sec. 4.2 bucket machinery. The
// flatten/rearrangement test reproduces the paper's Fig. 7 running example
// to its printed 4-digit precision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "hist/flatten.h"
#include "hist/greedy_merge.h"
#include "hist/histogram1d.h"
#include "serving/engine.h"

namespace pcde {
namespace hist {
namespace {

Histogram1D MustMake(std::vector<Bucket> buckets) {
  auto h = Histogram1D::Make(std::move(buckets));
  EXPECT_TRUE(h.ok()) << h.status().ToString();
  return std::move(h).value();
}

// ---------------------------------------------------------------------------
// Construction & validation
// ---------------------------------------------------------------------------

TEST(Histogram1DTest, MakeValidates) {
  EXPECT_FALSE(Histogram1D::Make({}).ok());
  EXPECT_FALSE(Histogram1D::Make({{0, 10, 0.5}, {5, 15, 0.5}}).ok());  // overlap
  EXPECT_FALSE(Histogram1D::Make({{0, 10, 0.7}}).ok());               // mass != 1
  EXPECT_FALSE(Histogram1D::Make({{10, 10, 1.0}}).ok());              // zero width
  EXPECT_FALSE(Histogram1D::Make({{0, 5, -0.1}, {5, 10, 1.1}}).ok()); // negative
  EXPECT_TRUE(Histogram1D::Make({{0, 5, 0.4}, {5, 10, 0.6}}).ok());
  EXPECT_TRUE(Histogram1D::Make({{0, 5, 0.4}, {7, 10, 0.6}}).ok());   // gap ok
  // Non-finite input. NaN fails every comparison, so each NaN case used to
  // pass; the infinite bound gave an infinite Mean().
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(Histogram1D::Make({{0, 1, nan}}).ok());
  EXPECT_FALSE(Histogram1D::Make({{0, nan, 1}}).ok());
  EXPECT_FALSE(Histogram1D::Make({{nan, 1, 1}}).ok());
  EXPECT_FALSE(Histogram1D::Make({{0, inf, 1}}).ok());
  EXPECT_FALSE(Histogram1D::Make({{0, 1, 0.5}, {-inf, -1, 0.5}}).ok());
  EXPECT_FALSE(Histogram1D::Make({{0, 1, 0.5}, {1, 2, nan}}).ok());
}

TEST(Histogram1DTest, MakeSortsBuckets) {
  const Histogram1D h = MustMake({{5, 10, 0.6}, {0, 5, 0.4}});
  EXPECT_DOUBLE_EQ(h.bucket(0).range.lo, 0.0);
  EXPECT_DOUBLE_EQ(h.Min(), 0.0);
  EXPECT_DOUBLE_EQ(h.Max(), 10.0);
}

TEST(Histogram1DTest, SummariesStayInsideUnitMassAndSupport) {
  // Normalized masses 1/2 + 1/3 + 1/6 sum one ulp above 1: the CDF past
  // the support must still be exactly 1.
  const Histogram1D above =
      MustMake({{10, 17, 3.0 / 6}, {17, 24, 2.0 / 6}, {24, 31, 1.0 / 6}});
  EXPECT_EQ(above.ProbWithin(above.Max() + 1), 1.0);
  EXPECT_LE(above.Quantile(1.0), above.Max());
  // 6/7 + 1/7: the running sum rounds so that the last bucket's in-bucket
  // fraction for q = 1 exceeds 1, which used to push Quantile(1.0) past
  // Max().
  const Histogram1D past = MustMake({{2, 9, 6.0 / 7}, {9, 16, 1.0 / 7}});
  EXPECT_EQ(past.ProbWithin(past.Max() + 1), 1.0);
  EXPECT_LE(past.Quantile(1.0), past.Max());
}

TEST(Histogram1DTest, MassRenormalizedWithinTolerance) {
  const Histogram1D h = MustMake({{0, 5, 0.5000004}, {5, 10, 0.4999999}});
  double total = 0;
  for (const auto& b : h.buckets()) total += b.prob;
  EXPECT_DOUBLE_EQ(total, 1.0);
}

// ---------------------------------------------------------------------------
// Moments, CDF, quantiles
// ---------------------------------------------------------------------------

TEST(Histogram1DTest, MeanOfUniform) {
  EXPECT_DOUBLE_EQ(Histogram1D::Single(10, 20).Mean(), 15.0);
}

TEST(Histogram1DTest, VarianceOfUniform) {
  // Var(U[0,12)) = 144/12 = 12.
  EXPECT_NEAR(Histogram1D::Single(0, 12).Variance(), 12.0, 1e-9);
}

TEST(Histogram1DTest, MeanOfTwoBuckets) {
  const Histogram1D h = MustMake({{0, 10, 0.5}, {10, 30, 0.5}});
  EXPECT_DOUBLE_EQ(h.Mean(), 0.5 * 5.0 + 0.5 * 20.0);
}

TEST(Histogram1DTest, CdfPiecewiseLinear) {
  const Histogram1D h = MustMake({{0, 10, 0.5}, {10, 30, 0.5}});
  EXPECT_DOUBLE_EQ(h.Cdf(-1), 0.0);
  EXPECT_DOUBLE_EQ(h.Cdf(5), 0.25);
  EXPECT_DOUBLE_EQ(h.Cdf(10), 0.5);
  EXPECT_DOUBLE_EQ(h.Cdf(20), 0.75);
  EXPECT_DOUBLE_EQ(h.Cdf(30), 1.0);
  EXPECT_DOUBLE_EQ(h.Cdf(100), 1.0);
}

TEST(Histogram1DTest, CdfWithGap) {
  const Histogram1D h = MustMake({{0, 10, 0.5}, {20, 30, 0.5}});
  EXPECT_DOUBLE_EQ(h.Cdf(15), 0.5);  // flat across the gap
}

TEST(Histogram1DTest, QuantileInvertsCdf) {
  const Histogram1D h = MustMake({{0, 10, 0.5}, {10, 30, 0.5}});
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.75), 20.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 30.0);
}

TEST(Histogram1DTest, QuantileOfNanIsNan) {
  // std::clamp passes NaN through, and a NaN level used to read as the
  // support maximum, here and in every summary built on it.
  const Histogram1D h = MustMake({{0, 10, 0.5}, {10, 30, 0.5}});
  EXPECT_TRUE(std::isnan(h.Quantile(std::nan(""))));
  const serving::CostSummary summary = serving::SummarizeDistribution(
      h, serving::kStatQuantiles, /*budget_seconds=*/0.0,
      {0.5, std::nan("")});
  ASSERT_EQ(summary.quantiles.size(), 2u);
  EXPECT_DOUBLE_EQ(summary.quantiles[0], 10.0);
  EXPECT_TRUE(std::isnan(summary.quantiles[1]));
}

TEST(Histogram1DTest, MassOfSubInterval) {
  const Histogram1D h = MustMake({{0, 10, 0.5}, {10, 30, 0.5}});
  EXPECT_DOUBLE_EQ(h.Mass(Interval(5, 15)), 0.25 + 0.125);
  EXPECT_DOUBLE_EQ(h.Mass(Interval(-5, 50)), 1.0);
  EXPECT_DOUBLE_EQ(h.Mass(Interval(40, 50)), 0.0);
}

TEST(Histogram1DTest, ProbWithinIsTheRoutingObjective) {
  // Fig. 1(a): P1 arrives within 60 min with probability 1.
  const Histogram1D p1 = MustMake({{48, 56, 1.0}});
  const Histogram1D p2 = MustMake({{40, 55, 0.9}, {65, 80, 0.1}});
  EXPECT_DOUBLE_EQ(p1.ProbWithin(60), 1.0);
  EXPECT_DOUBLE_EQ(p2.ProbWithin(60), 0.9);
  // ... although P2 has the lower mean (Sec. 1's motivating example).
  EXPECT_LT(p2.Mean(), p1.Mean());
}

// ---------------------------------------------------------------------------
// Entropy
// ---------------------------------------------------------------------------

TEST(Histogram1DTest, DiscreteEntropyUniformBuckets) {
  const Histogram1D h = MustMake({{0, 1, 0.25}, {1, 2, 0.25}, {2, 3, 0.25},
                                  {3, 4, 0.25}});
  EXPECT_NEAR(h.DiscreteEntropy(), std::log(4.0), 1e-12);
}

TEST(Histogram1DTest, DifferentialEntropyOfUniform) {
  // h(U[a,b)) = ln(b-a).
  EXPECT_NEAR(Histogram1D::Single(0, 8).DifferentialEntropy(), std::log(8.0),
              1e-12);
}

TEST(Histogram1DTest, DifferentialEntropyInvariantUnderSplit) {
  // Splitting a bucket at constant density must not change differential
  // entropy — the property that makes it comparable across bucketizations.
  const Histogram1D coarse = MustMake({{0, 10, 1.0}});
  const Histogram1D fine = MustMake({{0, 5, 0.5}, {5, 10, 0.5}});
  EXPECT_NEAR(coarse.DifferentialEntropy(), fine.DifferentialEntropy(), 1e-12);
  // Discrete entropy is NOT invariant (this is why the benches use the
  // differential form).
  EXPECT_GT(fine.DiscreteEntropy(), coarse.DiscreteEntropy());
}

// ---------------------------------------------------------------------------
// FlattenToDisjoint — the paper's Fig. 7 rearrangement, exact.
// ---------------------------------------------------------------------------

TEST(FlattenTest, PaperFig7Exact) {
  // Input (second table of Fig. 7): overlapping buckets from the
  // hyper-bucket sums.
  std::vector<WeightedInterval> parts = {
      {Interval(40, 70), 0.30},
      {Interval(50, 90), 0.25},
      {Interval(60, 90), 0.20},
      {Interval(70, 110), 0.25},
  };
  auto flat = FlattenToDisjoint(parts);
  ASSERT_TRUE(flat.ok());
  const Histogram1D& h = flat.value();
  // Expected (third table of Fig. 7).
  ASSERT_EQ(h.NumBuckets(), 5u);
  EXPECT_DOUBLE_EQ(h.bucket(0).range.lo, 40.0);
  EXPECT_DOUBLE_EQ(h.bucket(0).range.hi, 50.0);
  EXPECT_NEAR(h.bucket(0).prob, 0.1000, 5e-5);
  EXPECT_DOUBLE_EQ(h.bucket(1).range.hi, 60.0);
  EXPECT_NEAR(h.bucket(1).prob, 0.1625, 5e-5);
  EXPECT_DOUBLE_EQ(h.bucket(2).range.hi, 70.0);
  EXPECT_NEAR(h.bucket(2).prob, 0.2292, 5e-5);
  EXPECT_DOUBLE_EQ(h.bucket(3).range.hi, 90.0);
  EXPECT_NEAR(h.bucket(3).prob, 0.3833, 5e-5);
  EXPECT_DOUBLE_EQ(h.bucket(4).range.hi, 110.0);
  EXPECT_NEAR(h.bucket(4).prob, 0.1250, 5e-5);
}

TEST(FlattenTest, PaperFig7IntermediateStep) {
  // The paper's worked sub-example: buckets [40,70):0.3 and [50,90):0.25
  // split into [40,50):0.1, [50,70):0.325, [70,90):0.125 (after
  // renormalizing the 0.55 total to 1, we check ratios instead).
  std::vector<WeightedInterval> parts = {
      {Interval(40, 70), 0.30},
      {Interval(50, 90), 0.25},
  };
  auto flat = FlattenToDisjoint(parts);
  ASSERT_TRUE(flat.ok());
  const Histogram1D& h = flat.value();
  ASSERT_EQ(h.NumBuckets(), 3u);
  const double scale = 0.55;  // flatten normalizes to total mass 1
  EXPECT_NEAR(h.bucket(0).prob * scale, 0.1, 1e-12);
  EXPECT_NEAR(h.bucket(1).prob * scale, 0.325, 1e-12);
  EXPECT_NEAR(h.bucket(2).prob * scale, 0.125, 1e-12);
}

TEST(FlattenTest, DisjointInputsPassThrough) {
  std::vector<WeightedInterval> parts = {
      {Interval(0, 10), 0.5},
      {Interval(20, 30), 0.5},
  };
  auto flat = FlattenToDisjoint(parts);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat.value().NumBuckets(), 2u);
  EXPECT_DOUBLE_EQ(flat.value().bucket(0).prob, 0.5);
}

TEST(FlattenTest, EqualDensityNeighboursMerge) {
  std::vector<WeightedInterval> parts = {
      {Interval(0, 10), 0.5},
      {Interval(10, 20), 0.5},
  };
  auto flat = FlattenToDisjoint(parts);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat.value().NumBuckets(), 1u);  // same density either side
}

TEST(FlattenTest, NormalizesTotalMass) {
  std::vector<WeightedInterval> parts = {
      {Interval(0, 10), 2.0},
      {Interval(5, 15), 2.0},
  };
  auto flat = FlattenToDisjoint(parts);
  ASSERT_TRUE(flat.ok());
  double total = 0;
  for (const auto& b : flat.value().buckets()) total += b.prob;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(FlattenTest, RejectsBadInput) {
  EXPECT_FALSE(FlattenToDisjoint({}).ok());
  EXPECT_FALSE(FlattenToDisjoint({{Interval(0, 1), -0.5}}).ok());
  EXPECT_FALSE(FlattenToDisjoint({{Interval(3, 3), 1.0}}).ok());
  EXPECT_FALSE(FlattenToDisjoint({{Interval(0, 1), 0.0}}).ok());  // zero mass
  // Non-finite bounds and masses. The NaN bound used to flatten into three
  // buckets with NaN bounds and masses.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(
      FlattenToDisjoint({{Interval(0, 1), 0.5}, {Interval(nan, 2), 0.5}}).ok());
  EXPECT_FALSE(FlattenToDisjoint({{Interval(0, nan), 1.0}}).ok());
  EXPECT_FALSE(FlattenToDisjoint({{Interval(0, inf), 1.0}}).ok());
  EXPECT_FALSE(FlattenToDisjoint({{Interval(-inf, 0), 1.0}}).ok());
  EXPECT_FALSE(FlattenToDisjoint({{Interval(0, 1), nan}}).ok());
  EXPECT_FALSE(FlattenToDisjoint({{Interval(0, 1), inf}}).ok());
  EXPECT_FALSE(
      FlattenToDisjoint({{Interval(0, 1), 0.5}, {Interval(1, 2), nan}}).ok());
}

// ---------------------------------------------------------------------------
// FlattenAndCompact against the pipeline it replaced, bit for bit
// ---------------------------------------------------------------------------

constexpr double kCutTolerance = 1e-12;

/// Ascending cuts of `parts` deduplicated within kCutTolerance, as the
/// replaced pipeline computed them (std::sort orders doubles exactly as its
/// monotone grid did).
std::vector<double> OldCuts(const std::vector<WeightedInterval>& parts) {
  std::vector<double> cuts;
  for (const WeightedInterval& w : parts) {
    cuts.push_back(w.range.lo);
    cuts.push_back(w.range.hi);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end(),
                         [](double a, double b) {
                           return std::fabs(a - b) < kCutTolerance;
                         }),
             cuts.end());
  return cuts;
}

/// The replaced FlattenToDisjoint, step for step.
StatusOr<Histogram1D> OldFlattenToDisjoint(
    const std::vector<WeightedInterval>& parts) {
  if (parts.empty()) {
    return Status::InvalidArgument("FlattenToDisjoint: no input intervals");
  }
  double total_mass = 0.0;
  for (const WeightedInterval& w : parts) {
    if (w.prob < 0.0) {
      return Status::InvalidArgument("FlattenToDisjoint: negative weight");
    }
    if (w.range.width() < kCutTolerance && w.prob > 0.0) {
      return Status::InvalidArgument(
          "FlattenToDisjoint: zero-width interval with positive mass");
    }
    total_mass += w.prob;
  }
  if (total_mass <= 0.0) {
    return Status::InvalidArgument("FlattenToDisjoint: zero total mass");
  }
  const std::vector<double> cuts = OldCuts(parts);
  const size_t n_slices = cuts.size() - 1;
  std::vector<double> diff(n_slices + 1, 0.0);
  std::vector<int32_t> cover(n_slices + 1, 0);
  for (const WeightedInterval& w : parts) {
    if (w.prob <= 0.0) continue;
    const double d = w.prob / w.range.width();
    const auto lo_it = std::lower_bound(cuts.begin(), cuts.end(),
                                        w.range.lo - kCutTolerance);
    const size_t s = static_cast<size_t>(lo_it - cuts.begin());
    const auto hi_it =
        std::lower_bound(cuts.begin() + static_cast<ptrdiff_t>(s), cuts.end(),
                         w.range.hi - kCutTolerance);
    const size_t s_end =
        std::min(n_slices, static_cast<size_t>(hi_it - cuts.begin()));
    if (s >= s_end) continue;
    diff[s] += d;
    diff[s_end] -= d;
    ++cover[s];
    --cover[s_end];
  }
  std::vector<double> density(n_slices, 0.0);
  double running = 0.0;
  int32_t covering = 0;
  for (size_t s = 0; s < n_slices; ++s) {
    covering += cover[s];
    running += diff[s];
    if (covering == 0) running = 0.0;
    density[s] = running;
  }
  std::vector<Bucket> out;
  for (size_t s = 0; s < n_slices; ++s) {
    const double w = cuts[s + 1] - cuts[s];
    const double mass = density[s] * w;
    if (mass <= 0.0) continue;
    const bool contiguous = !out.empty() &&
                            std::fabs(out.back().range.hi - cuts[s]) <
                                kCutTolerance;
    if (contiguous) {
      const double prev_density = out.back().prob / out.back().range.width();
      if (std::fabs(prev_density - density[s]) <=
          1e-9 * std::max(prev_density, density[s])) {
        out.back().range.hi = cuts[s + 1];
        out.back().prob += mass;
        continue;
      }
    }
    out.emplace_back(cuts[s], cuts[s + 1], mass);
  }
  for (Bucket& b : out) b.prob /= total_mass;
  return Histogram1D::Make(std::move(out));
}

/// The replaced Compact, step for step.
Histogram1D OldCompact(const Histogram1D& h, size_t max_buckets) {
  if (h.NumBuckets() <= max_buckets || max_buckets == 0) return h;
  std::vector<Bucket> bs = h.buckets();
  GreedyMergeScratch scratch;
  GreedyMergeToCap(&bs, max_buckets, &scratch);
  return Histogram1D::Make(std::move(bs)).value();
}

/// What the input exercises, counted over the whole sweep.
struct DifferentialCoverage {
  size_t ok = 0;
  size_t rejected = 0;
  size_t inflated = 0;
  size_t zero_mass = 0;
  size_t lookup_fallbacks = 0;
  size_t merged_equal_density = 0;
  size_t heap_merges = 0;
};

/// Random weighted intervals mixing the shapes the sweep needs: overlaps,
/// inflated zero-width sums, zero-mass entries, equal-density neighbours,
/// cuts 1e-12 apart, and (for `huge`) more slices than the greedy merge's
/// heap threshold.
std::vector<WeightedInterval> DifferentialInput(Rng* rng, bool huge,
                                                DifferentialCoverage* cov) {
  std::vector<WeightedInterval> parts;
  if (huge) {
    // Disjoint, gapped, distinct densities: every interval is one slice.
    double at = rng->Uniform(0.0, 10.0);
    const size_t n = kGreedyMergeHeapThreshold + 1 +
                     static_cast<size_t>(rng->UniformInt(0, 300));
    for (size_t i = 0; i < n; ++i) {
      const double w = rng->Uniform(0.05, 2.0);
      parts.push_back({Interval(at, at + w), rng->Uniform(0.01, 1.0)});
      at += w + rng->Uniform(0.01, 0.5);
    }
    return parts;
  }
  const size_t n = 1 + static_cast<size_t>(rng->UniformInt(0, 120));
  const double base = rng->Uniform(-50.0, 400.0);
  for (size_t i = 0; i < n; ++i) {
    const int shape = static_cast<int>(rng->UniformInt(0, 9));
    double lo = base + rng->Uniform(0.0, 200.0);
    double hi = lo + rng->Uniform(0.01, 60.0);
    double p = rng->Uniform(0.001, 1.0);
    if (shape == 0) {
      // A zero-width sum, inflated as the chain sweep inflates its sums.
      const Interval inflated = Interval(lo, lo).Inflated();
      lo = inflated.lo;
      hi = inflated.hi;
      ++cov->inflated;
    } else if (shape == 1) {
      p = 0.0;
      if (rng->Uniform() < 0.3) hi = lo;  // zero mass may have zero width
      ++cov->zero_mass;
    } else if (shape == 2 && !parts.empty()) {
      // An equal-density neighbour of the previous interval.
      const WeightedInterval& prev = parts.back();
      if (prev.prob > 0.0) {
        lo = prev.range.hi;
        hi = lo + rng->Uniform(0.5, 30.0);
        p = prev.prob / prev.range.width() * (hi - lo);
      }
    } else if (shape == 3 && !parts.empty()) {
      // Bounds within 1e-12 of an earlier cut, or exactly 1e-12 below one
      // (where the kept cut of a bound is not its slice).
      const WeightedInterval& prev = parts[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(parts.size()) - 1))];
      static constexpr double kOffsets[] = {0.0,     1e-12,  -1e-12, 5e-13,
                                            -5e-13, 2e-12,  3e-13,  -2e-12};
      const double at = rng->Uniform() < 0.5 ? prev.range.lo : prev.range.hi;
      lo = at + kOffsets[rng->UniformInt(0, 7)];
      if (rng->Uniform() < 0.5) {
        hi = lo + rng->Uniform(0.01, 40.0);
      } else {
        hi = lo;
        lo = hi - rng->Uniform(0.01, 40.0);
      }
    }
    parts.push_back({Interval(lo, hi), p});
  }
  if (rng->Uniform() < 0.05) {
    // Occasionally invalid: both sides must reject with the same message.
    parts[static_cast<size_t>(rng->UniformInt(
                0, static_cast<int64_t>(parts.size()) - 1))]
        .prob = rng->Uniform() < 0.5 ? -0.25 : 0.0;
    if (rng->Uniform() < 0.5) {
      for (WeightedInterval& w : parts) w.prob = 0.0;
    }
  }
  return parts;
}

TEST(FlattenKernelTest, BitIdenticalToTheReplacedPipeline) {
  Rng rng(20261019);
  FlattenScratch scratch;  // reused throughout, as a thread's scratch is
  DifferentialCoverage cov;
  constexpr int kRounds = 2400;
  for (int round = 0; round < kRounds; ++round) {
    const bool huge = round % 400 == 0;
    const std::vector<WeightedInterval> parts =
        DifferentialInput(&rng, huge, &cov);
    const int cap_pick = static_cast<int>(rng.UniformInt(0, 3));
    const size_t cap = huge            ? 64
                       : cap_pick == 0 ? 0
                       : cap_pick == 1 ? 48
                       : cap_pick == 2 ? 64
                                       : static_cast<size_t>(
                                             rng.UniformInt(1, 100));

    const StatusOr<Histogram1D> old_flat = OldFlattenToDisjoint(parts);
    std::vector<double> lo, hi, prob;
    for (const WeightedInterval& w : parts) {
      lo.push_back(w.range.lo);
      hi.push_back(w.range.hi);
      prob.push_back(w.prob);
    }
    const Status status = FlattenAndCompact(lo.data(), hi.data(), prob.data(),
                                            parts.size(), cap, &scratch);
    ASSERT_EQ(status.ok(), old_flat.ok()) << "round " << round;
    if (!status.ok()) {
      EXPECT_EQ(status.message(), old_flat.status().message());
      ++cov.rejected;
      continue;
    }
    ++cov.ok;
    if (old_flat->NumBuckets() > kGreedyMergeHeapThreshold && cap > 0) {
      ++cov.heap_merges;
    }
    const Histogram1D expected = OldCompact(old_flat.value(), cap);
    ASSERT_EQ(scratch.buckets.size(), expected.NumBuckets())
        << "round " << round;
    for (size_t i = 0; i < expected.NumBuckets(); ++i) {
      ASSERT_EQ(scratch.buckets[i].range.lo, expected.bucket(i).range.lo)
          << "round " << round << " bucket " << i;
      ASSERT_EQ(scratch.buckets[i].range.hi, expected.bucket(i).range.hi)
          << "round " << round << " bucket " << i;
      ASSERT_EQ(scratch.buckets[i].prob, expected.bucket(i).prob)
          << "round " << round << " bucket " << i;
    }
    EXPECT_TRUE(Histogram1D::FromFlattened(scratch).BitIdentical(expected));

    // A kept cut exactly kCutTolerance below the next kept cut, where that
    // cut is a positive-mass bound: the bound's own kept cut is then not
    // its slice, and the kernel's lookup falls back to a binary search.
    const std::vector<double> cuts = OldCuts(parts);
    for (size_t k = 1; k < cuts.size(); ++k) {
      if (!(cuts[k] - kCutTolerance <= cuts[k - 1])) continue;
      for (const WeightedInterval& w : parts) {
        if (w.prob > 0.0 && (w.range.lo == cuts[k] || w.range.hi == cuts[k])) {
          ++cov.lookup_fallbacks;
          break;
        }
      }
    }
    if (huge) continue;
    size_t slices = 0;
    for (size_t k = 0; k + 1 < cuts.size(); ++k) {
      slices += old_flat->Mass(Interval(cuts[k], cuts[k + 1])) > 0.0 ? 1 : 0;
    }
    if (slices > old_flat->NumBuckets()) ++cov.merged_equal_density;
  }
  EXPECT_GE(cov.ok, 2000u);
  EXPECT_GT(cov.rejected, 0u);
  EXPECT_GT(cov.inflated, 0u);
  EXPECT_GT(cov.zero_mass, 0u);
  EXPECT_GT(cov.lookup_fallbacks, 0u);
  EXPECT_GT(cov.merged_equal_density, 0u);
  EXPECT_GE(cov.heap_merges, 3u);
}

// Property sweep: flatten preserves mean (the rearrangement redistributes
// within intervals uniformly, so the expected value is unchanged).
class FlattenProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlattenProperty, PreservesMeanAndSupport) {
  Rng rng(GetParam());
  std::vector<WeightedInterval> parts;
  double mean = 0.0, total = 0.0;
  const int n = 2 + static_cast<int>(rng.UniformInt(0, 10));
  for (int i = 0; i < n; ++i) {
    const double lo = rng.Uniform(0, 200);
    const double w = rng.Uniform(1, 60);
    const double p = rng.Uniform(0.01, 1.0);
    parts.push_back({Interval(lo, lo + w), p});
    mean += p * (lo + w / 2);
    total += p;
  }
  mean /= total;
  auto flat = FlattenToDisjoint(parts);
  ASSERT_TRUE(flat.ok());
  EXPECT_NEAR(flat.value().Mean(), mean, 1e-6);
  double lo = 1e30, hi = -1e30;
  for (const auto& w : parts) {
    lo = std::min(lo, w.range.lo);
    hi = std::max(hi, w.range.hi);
  }
  EXPECT_GE(flat.value().Min(), lo - 1e-9);
  EXPECT_LE(flat.value().Max(), hi + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlattenProperty,
                         ::testing::Range<uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// Convolution
// ---------------------------------------------------------------------------

TEST(ConvolveTest, UniformPlusUniformIsTriangular) {
  const Histogram1D u = Histogram1D::Single(0, 10);
  auto c = Convolve(u, u);
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ(c.value().Min(), 0.0);
  EXPECT_DOUBLE_EQ(c.value().Max(), 20.0);
  EXPECT_NEAR(c.value().Mean(), 10.0, 1e-9);
}

TEST(ConvolveTest, MeanIsAdditive) {
  const Histogram1D a = MustMake({{0, 10, 0.3}, {10, 20, 0.7}});
  const Histogram1D b = MustMake({{5, 15, 0.6}, {15, 35, 0.4}});
  auto c = Convolve(a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_NEAR(c.value().Mean(), a.Mean() + b.Mean(), 1e-9);
}

TEST(ConvolveTest, SupportIsMinkowskiSum) {
  const Histogram1D a = MustMake({{10, 20, 1.0}});
  const Histogram1D b = MustMake({{5, 7, 1.0}});
  auto c = Convolve(a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ(c.value().Min(), 15.0);
  EXPECT_DOUBLE_EQ(c.value().Max(), 27.0);
}

TEST(ConvolveTest, RespectsMaxBuckets) {
  Rng rng(17);
  std::vector<Bucket> bs;
  double lo = 0;
  for (int i = 0; i < 20; ++i) {
    const double w = rng.Uniform(1, 5);
    bs.emplace_back(lo, lo + w, 0.05);
    lo += w + rng.Uniform(0, 2);
  }
  const Histogram1D a = MustMake(bs);
  auto c = Convolve(a, a, 16);
  ASSERT_TRUE(c.ok());
  EXPECT_LE(c.value().NumBuckets(), 16u);
  EXPECT_NEAR(c.value().Mean(), 2 * a.Mean(), 0.5);
}

// ---------------------------------------------------------------------------
// GreedyMergeToCap: the merge the flatten kernel's compaction step runs
// ---------------------------------------------------------------------------

Histogram1D MergeToCap(const Histogram1D& h, size_t cap) {
  std::vector<Bucket> bs = h.buckets();
  GreedyMergeScratch scratch;
  GreedyMergeToCap(&bs, cap, &scratch);
  return MustMake(std::move(bs));
}

TEST(MergeToCapTest, NoOpWhenSmallEnough) {
  const Histogram1D h = MustMake({{0, 5, 0.4}, {5, 10, 0.6}});
  EXPECT_EQ(MergeToCap(h, 4).NumBuckets(), 2u);
}

TEST(MergeToCapTest, ReducesToCapAndKeepsMass) {
  std::vector<Bucket> bs;
  for (int i = 0; i < 32; ++i) bs.emplace_back(i, i + 1, 1.0 / 32);
  const Histogram1D h = MustMake(bs);
  const Histogram1D c = MergeToCap(h, 8);
  EXPECT_LE(c.NumBuckets(), 8u);
  double total = 0;
  for (const auto& b : c.buckets()) total += b.prob;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(c.Mean(), h.Mean(), 1e-9);  // uniform merge preserves the mean
}

TEST(MergeToCapTest, MergesSimilarDensityFirst) {
  // Buckets: two equal-density on the left, a spike on the right. The
  // spike must survive compaction to 2 buckets.
  const Histogram1D h = MustMake({{0, 10, 0.2}, {10, 20, 0.2}, {20, 21, 0.6}});
  const Histogram1D c = MergeToCap(h, 2);
  ASSERT_EQ(c.NumBuckets(), 2u);
  EXPECT_DOUBLE_EQ(c.bucket(1).range.lo, 20.0);
  EXPECT_NEAR(c.bucket(1).prob, 0.6, 1e-9);
}

// ---------------------------------------------------------------------------
// KL divergence and L1
// ---------------------------------------------------------------------------

TEST(KlTest, ZeroOnIdentical) {
  const Histogram1D h = MustMake({{0, 10, 0.5}, {10, 30, 0.5}});
  EXPECT_NEAR(KlDivergence(h, h), 0.0, 1e-9);
}

TEST(KlTest, PositiveOnDifferent) {
  const Histogram1D p = MustMake({{0, 10, 0.9}, {10, 20, 0.1}});
  const Histogram1D q = MustMake({{0, 10, 0.1}, {10, 20, 0.9}});
  EXPECT_GT(KlDivergence(p, q), 0.5);
}

TEST(KlTest, AsymmetricButBothPositive) {
  const Histogram1D p = MustMake({{0, 10, 1.0}});
  const Histogram1D q = MustMake({{0, 10, 0.5}, {10, 20, 0.5}});
  EXPECT_GT(KlDivergence(p, q), 0.0);
  EXPECT_GT(KlDivergence(q, p), 0.0);
}

TEST(KlTest, FiniteWhenSupportsMismatch) {
  const Histogram1D p = MustMake({{0, 10, 1.0}});
  const Histogram1D q = MustMake({{100, 110, 1.0}});
  const double kl = KlDivergence(p, q);
  EXPECT_GT(kl, 1.0);
  EXPECT_TRUE(std::isfinite(kl));
}

TEST(KlTest, RefinementInvariance) {
  // Splitting q's buckets at constant density must not change KL.
  const Histogram1D p = MustMake({{0, 10, 0.3}, {10, 20, 0.7}});
  const Histogram1D q1 = MustMake({{0, 20, 1.0}});
  const Histogram1D q2 = MustMake({{0, 10, 0.5}, {10, 20, 0.5}});
  EXPECT_NEAR(KlDivergence(p, q1), KlDivergence(p, q2), 1e-6);
}

TEST(L1Test, BoundsAndIdentity) {
  const Histogram1D p = MustMake({{0, 10, 1.0}});
  const Histogram1D q = MustMake({{100, 110, 1.0}});
  EXPECT_NEAR(L1Distance(p, q), 2.0, 1e-9);  // disjoint supports
  EXPECT_NEAR(L1Distance(p, p), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------------

TEST(SampleTest, RespectsBucketMasses) {
  const Histogram1D h = MustMake({{0, 10, 0.25}, {50, 60, 0.75}});
  Rng rng(21);
  int high = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) high += h.Sample(&rng) >= 50.0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(high) / n, 0.75, 0.02);
}

// ---------------------------------------------------------------------------
// Serving-visible edge cases (serving::CostSummary is derived from these
// numbers): empty histogram, near-point mass, q = 0/1, budgets outside the
// support — pinned against brute-force integration of the piecewise-
// uniform density.
// ---------------------------------------------------------------------------

/// Brute-force CDF: numerically integrate the piecewise-uniform density up
/// to x, bucket by bucket on a fine midpoint grid (the grid aligns with
/// bucket edges, so the only error is the O(dx^2) midpoint-rule term —
/// independent of the analytic bucket walk being tested).
double BruteCdf(const Histogram1D& h, double x, size_t steps = 20000) {
  double acc = 0.0;
  for (const Bucket& b : h.buckets()) {
    const double hi = std::min(x, b.range.hi);
    if (hi <= b.range.lo) continue;
    const double dx = (hi - b.range.lo) / static_cast<double>(steps);
    const double density = b.prob / b.range.width();
    for (size_t i = 0; i < steps; ++i) acc += dx * density;
  }
  return acc;
}

/// Brute-force raw moment E[X^k] on the same per-bucket midpoint grid.
double BruteMoment(const Histogram1D& h, int k, size_t steps = 20000) {
  double acc = 0.0;
  for (const Bucket& b : h.buckets()) {
    const double dx = b.range.width() / static_cast<double>(steps);
    const double density = b.prob / b.range.width();
    for (size_t i = 0; i < steps; ++i) {
      const double mid = b.range.lo + (static_cast<double>(i) + 0.5) * dx;
      acc += dx * density * std::pow(mid, k);
    }
  }
  return acc;
}

TEST(EdgeCaseTest, EmptyHistogramIsInert) {
  const Histogram1D h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.NumBuckets(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Cdf(123.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);  // documented fallback
  EXPECT_DOUBLE_EQ(h.Mass(Interval(0.0, 1.0)), 0.0);
}

TEST(EdgeCaseTest, NearPointMassConcentratesEverything) {
  // The narrowest bucket Make admits: all mass in [100, 100 + 1e-9).
  const double w = 1e-9;
  const Histogram1D h = MustMake({{100.0, 100.0 + w, 1.0}});
  EXPECT_NEAR(h.Mean(), 100.0, 1e-6);
  EXPECT_NEAR(h.Variance(), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(h.Cdf(100.0), 0.0);          // budget below support
  EXPECT_DOUBLE_EQ(h.Cdf(100.0 + w), 1.0);      // budget above support
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100.0 + w);
  EXPECT_NEAR(h.Quantile(0.5), 100.0, 1e-6);
}

TEST(EdgeCaseTest, QuantileAtZeroAndOneAreTheSupportBounds) {
  const Histogram1D h = MustMake({{10, 20, 0.3}, {25, 40, 0.7}});
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 40.0);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(h.Quantile(-0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.5), 40.0);
  // q landing exactly on a bucket boundary mass: right edge of bucket 0.
  EXPECT_DOUBLE_EQ(h.Quantile(0.3), 20.0);
}

TEST(EdgeCaseTest, BudgetOutsideSupportSaturates) {
  const Histogram1D h = MustMake({{10, 20, 0.3}, {25, 40, 0.7}});
  EXPECT_DOUBLE_EQ(h.ProbWithin(0.0), 0.0);     // far below
  EXPECT_DOUBLE_EQ(h.ProbWithin(10.0), 0.0);    // exactly at Min
  EXPECT_DOUBLE_EQ(h.ProbWithin(40.0), 1.0);    // exactly at Max
  EXPECT_DOUBLE_EQ(h.ProbWithin(1e9), 1.0);     // far above
  // Inside the gap between buckets: exactly the first bucket's mass.
  EXPECT_DOUBLE_EQ(h.ProbWithin(22.0), 0.3);
}

TEST(EdgeCaseTest, CdfMeanVarianceMatchBruteForceIntegration) {
  // A gapped, uneven histogram — the shape chain estimates actually have.
  const Histogram1D h =
      MustMake({{5, 8, 0.15}, {8, 9, 0.35}, {12, 20, 0.4}, {30, 31, 0.1}});
  for (double x : {5.5, 8.0, 8.7, 10.0, 13.0, 20.0, 30.5, 31.0}) {
    EXPECT_NEAR(h.Cdf(x), BruteCdf(h, x), 1e-9) << "x = " << x;
  }
  EXPECT_NEAR(h.Mean(), BruteMoment(h, 1), 1e-6);
  const double brute_var =
      BruteMoment(h, 2) - BruteMoment(h, 1) * BruteMoment(h, 1);
  EXPECT_NEAR(h.Variance(), brute_var, 1e-6);
  // Quantile inverts the brute-force CDF.
  for (double q : {0.1, 0.15, 0.5, 0.9, 0.999}) {
    const double x = h.Quantile(q);
    EXPECT_NEAR(BruteCdf(h, x), q, 1e-9) << "q = " << q;
  }
}

TEST(MemoryTest, GrowsWithBuckets) {
  const Histogram1D small = Histogram1D::Single(0, 1);
  const Histogram1D big = MustMake({{0, 1, 0.25}, {1, 2, 0.25}, {2, 3, 0.25},
                                    {3, 4, 0.25}});
  EXPECT_GT(big.MemoryUsageBytes(), small.MemoryUsageBytes());
}

}  // namespace
}  // namespace hist
}  // namespace pcde
