// One-dimensional histograms (Sec. 3.1): compact approximations of
// arbitrary univariate travel-cost distributions. A histogram is a set of
// disjoint, sorted (bucket, probability) pairs with probabilities summing
// to 1; probability is uniform within a bucket.
//
// This header also implements the bucket machinery the paper's Sec. 4.2
// builds on: flattening overlapping weighted intervals into a disjoint
// histogram (the "rearrangement" of Fig. 7), convolution of independent
// histograms (the legacy baseline), compaction, KL divergence, and entropy.
#pragma once

#include <string>
#include <vector>

#include "common/interval.h"
#include "common/rng.h"
#include "common/status.h"

namespace pcde {
namespace hist {

/// \brief A (bucket, probability) pair; the bucket is half-open [lo, hi).
struct Bucket {
  Interval range;
  double prob = 0.0;

  Bucket() = default;
  Bucket(double lo, double hi, double p) : range(lo, hi), prob(p) {}
  Bucket(Interval iv, double p) : range(iv), prob(p) {}
};

/// \brief Weighted interval used as input to FlattenToDisjoint; unlike
/// Bucket lists in a Histogram1D, these may overlap.
using WeightedInterval = Bucket;

struct FlattenScratch;  // hist/flatten.h

/// \brief Immutable 1-D histogram: disjoint sorted buckets, total mass 1.
class Histogram1D {
 public:
  Histogram1D() = default;

  /// Validates: finite bounds, buckets sorted, pairwise disjoint, positive
  /// widths, non-negative probabilities summing to 1 within tolerance (mass
  /// is then renormalized exactly).
  static StatusOr<Histogram1D> Make(std::vector<Bucket> buckets);

  /// The buckets of the last successful FlattenAndCompact on `scratch`
  /// (hist/flatten.h), copied as they are: the kernel has validated and
  /// normalized them, and renormalizing again would move their bits.
  static Histogram1D FromFlattened(const FlattenScratch& scratch);

  /// Degenerate single-bucket histogram covering [lo, hi).
  static Histogram1D Single(double lo, double hi);

  bool empty() const { return buckets_.empty(); }
  size_t NumBuckets() const { return buckets_.size(); }
  const std::vector<Bucket>& buckets() const { return buckets_; }
  const Bucket& bucket(size_t i) const { return buckets_[i]; }

  /// Exact per-bucket equality (lo, hi, prob compared with ==) — the
  /// model artifact round-trip guarantee: an estimate served from a
  /// saved-then-reloaded weight function must be BitIdentical to the
  /// just-built model's estimate (examples and tests/model_artifact_test
  /// gate on this).
  bool BitIdentical(const Histogram1D& other) const {
    if (buckets_.size() != other.buckets_.size()) return false;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i].range.lo != other.buckets_[i].range.lo ||
          buckets_[i].range.hi != other.buckets_[i].range.hi ||
          buckets_[i].prob != other.buckets_[i].prob) {
        return false;
      }
    }
    return true;
  }

  /// Support bounds: V.min and V.max in the paper's shift-and-enlarge
  /// procedure (Eq. 3).
  double Min() const { return buckets_.front().range.lo; }
  double Max() const { return buckets_.back().range.hi; }

  double Mean() const;
  double Variance() const;

  /// P(X < x) under the piecewise-uniform density.
  double Cdf(double x) const;

  /// P(X <= budget): the quantity stochastic routing maximizes ("probability
  /// of arriving within 60 min", Fig. 1a).
  double ProbWithin(double budget) const { return Cdf(budget); }

  /// Smallest x with Cdf(x) >= q; q is clamped to [0, 1], and a NaN q
  /// gives NaN.
  double Quantile(double q) const;

  /// Probability mass falling inside `iv`.
  double Mass(const Interval& iv) const;

  /// Entropy treating buckets as discrete outcomes: -sum p log p (nats).
  double DiscreteEntropy() const;

  /// Differential entropy of the piecewise-uniform density:
  /// -sum p_i ln(p_i / w_i). Invariant to splitting a bucket in two, which
  /// makes it the right quantity for the paper's entropy comparisons
  /// (Fig. 8b, Fig. 15).
  double DifferentialEntropy() const;

  /// Draws one sample (bucket by mass, then uniform within bucket).
  double Sample(Rng* rng) const;

  /// Bytes used by the bucket representation; Fig. 11(c) / Fig. 12.
  size_t MemoryUsageBytes() const;

  std::string ToString(int precision = 4) const;

 private:
  explicit Histogram1D(std::vector<Bucket> buckets)
      : buckets_(std::move(buckets)) {}
  std::vector<Bucket> buckets_;
};

/// \brief The Sec. 4.2 rearrangement: turns overlapping weighted intervals
/// into a disjoint histogram under the uniform-within-bucket assumption.
///
/// Reproduces the paper's Fig. 7 example exactly: adjacent output slices
/// with equal density are merged back into one bucket, zero-mass gaps are
/// dropped. Total mass is preserved (then normalized to counter float
/// drift). FlattenAndCompact (hist/flatten.h) with no bucket cap.
StatusOr<Histogram1D> FlattenToDisjoint(std::vector<WeightedInterval> parts);

/// \brief Convolution of independent histograms (the legacy paradigm's
/// cost-aggregation step, Sec. 2.3): Minkowski-sums every bucket pair, then
/// flattens and compacts to at most `max_buckets`.
StatusOr<Histogram1D> Convolve(const Histogram1D& a, const Histogram1D& b,
                               size_t max_buckets = 64);

/// \brief Cost of merging two adjacent buckets into one uniform bucket:
/// the integrated squared density error (covering any gap between them,
/// where the old density is 0). The greedy merge (hist/greedy_merge.h) of
/// the flatten kernel's compaction step ranks pairs by it.
inline double MergeCost(const Interval& a_range, double a_prob,
                        const Interval& b_range, double b_prob) {
  const double w_merged = b_range.hi - a_range.lo;
  const double d = (a_prob + b_prob) / w_merged;
  const double da = a_prob / a_range.width();
  const double db = b_prob / b_range.width();
  const double gap = b_range.lo - a_range.hi;
  return (da - d) * (da - d) * a_range.width() +
         (db - d) * (db - d) * b_range.width() +
         d * d * std::max(gap, 0.0);
}

/// \brief KL(p || q) in nats between two histograms, computed on the union
/// refinement of their breakpoints. `q` is smoothed with mass `epsilon`
/// spread over the union support so the divergence stays finite where q has
/// holes (standard practice; the paper reports finite KL values
/// throughout).
double KlDivergence(const Histogram1D& p, const Histogram1D& q,
                    double epsilon = 1e-6);

/// L1 (total variation x2) distance on the union refinement.
double L1Distance(const Histogram1D& p, const Histogram1D& q);

}  // namespace hist
}  // namespace pcde
