#include "hist/histogram1d.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "common/mathutil.h"
#include "hist/cut_binning.h"
#include "hist/greedy_merge.h"

namespace pcde {
namespace hist {

namespace {

constexpr double kMassTolerance = 1e-6;
constexpr double kMinWidth = 1e-12;

void Normalize(std::vector<Bucket>* buckets) {
  double total = 0.0;
  for (const Bucket& b : *buckets) total += b.prob;
  if (total <= 0.0) return;
  for (Bucket& b : *buckets) b.prob /= total;
}

}  // namespace

StatusOr<Histogram1D> Histogram1D::Make(std::vector<Bucket> buckets) {
  if (buckets.empty()) {
    return Status::InvalidArgument("histogram needs at least one bucket");
  }
  std::sort(buckets.begin(), buckets.end(),
            [](const Bucket& a, const Bucket& b) {
              return a.range.lo < b.range.lo;
            });
  double total = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i].range.width() < kMinWidth) {
      return Status::InvalidArgument("bucket has non-positive width");
    }
    if (buckets[i].prob < 0.0) {
      return Status::InvalidArgument("negative bucket probability");
    }
    if (i > 0 && buckets[i].range.lo < buckets[i - 1].range.hi - kMinWidth) {
      return Status::InvalidArgument("buckets overlap");
    }
    total += buckets[i].prob;
  }
  if (std::fabs(total - 1.0) > kMassTolerance) {
    return Status::InvalidArgument("bucket probabilities sum to " +
                                   std::to_string(total) + ", expected 1");
  }
  Normalize(&buckets);
  return Histogram1D(std::move(buckets));
}

Histogram1D Histogram1D::Single(double lo, double hi) {
  assert(hi > lo);
  return Histogram1D({Bucket(lo, hi, 1.0)});
}

double Histogram1D::Mean() const {
  double m = 0.0;
  for (const Bucket& b : buckets_) m += b.prob * b.range.mid();
  return m;
}

double Histogram1D::Variance() const {
  const double mu = Mean();
  double v = 0.0;
  for (const Bucket& b : buckets_) {
    // Uniform within bucket: E[X^2] over the bucket is mid^2 + w^2/12.
    const double mid = b.range.mid();
    const double w = b.range.width();
    v += b.prob * (mid * mid + w * w / 12.0);
  }
  return v - mu * mu;
}

double Histogram1D::Cdf(double x) const {
  double acc = 0.0;
  for (const Bucket& b : buckets_) {
    if (x >= b.range.hi) {
      acc += b.prob;
    } else if (x > b.range.lo) {
      acc += b.prob * (x - b.range.lo) / b.range.width();
      break;
    } else {
      break;
    }
  }
  // Normalized masses may sum a few ulps above 1; a probability may not.
  return std::min(acc, 1.0);
}

double Histogram1D::Quantile(double q) const {
  // std::clamp passes NaN through, and no `acc + prob >= q` test holds for
  // it: without this check a NaN level would read as the support maximum.
  if (std::isnan(q)) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  double acc = 0.0;
  for (const Bucket& b : buckets_) {
    if (acc + b.prob >= q) {
      if (b.prob <= 0.0) return b.range.lo;
      // Rounding in acc can put (q - acc) / prob a hair outside [0, 1],
      // which would land the quantile outside its bucket (and the support).
      const double frac = std::clamp((q - acc) / b.prob, 0.0, 1.0);
      return b.range.lo + frac * b.range.width();
    }
    acc += b.prob;
  }
  return buckets_.empty() ? 0.0 : Max();
}

double Histogram1D::Mass(const Interval& iv) const {
  double acc = 0.0;
  for (const Bucket& b : buckets_) {
    const Interval x = b.range.Intersect(iv);
    if (!x.empty()) acc += b.prob * x.width() / b.range.width();
  }
  return acc;
}

double Histogram1D::DiscreteEntropy() const {
  double h = 0.0;
  for (const Bucket& b : buckets_) {
    if (b.prob > 0.0) h -= b.prob * std::log(b.prob);
  }
  return h;
}

double Histogram1D::DifferentialEntropy() const {
  double h = 0.0;
  for (const Bucket& b : buckets_) {
    if (b.prob > 0.0) h -= b.prob * std::log(b.prob / b.range.width());
  }
  return h;
}

double Histogram1D::Sample(Rng* rng) const {
  assert(!buckets_.empty());
  double u = rng->Uniform();
  for (const Bucket& b : buckets_) {
    if (u < b.prob) {
      return b.range.lo + rng->Uniform() * b.range.width();
    }
    u -= b.prob;
  }
  const Bucket& last = buckets_.back();
  return last.range.lo + rng->Uniform() * last.range.width();
}

size_t Histogram1D::MemoryUsageBytes() const {
  return sizeof(Histogram1D) + buckets_.size() * sizeof(Bucket);
}

std::string Histogram1D::ToString(int precision) const {
  std::ostringstream os;
  os.precision(precision);
  os << std::fixed;
  os << "{";
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (i > 0) os << ", ";
    os << "[" << buckets_[i].range.lo << "," << buckets_[i].range.hi
       << "):" << buckets_[i].prob;
  }
  os << "}";
  return os.str();
}

StatusOr<Histogram1D> FlattenToDisjoint(std::vector<WeightedInterval> parts) {
  if (parts.empty()) {
    return Status::InvalidArgument("FlattenToDisjoint: no input intervals");
  }
  // Collect breakpoints.
  std::vector<double> cuts;
  cuts.reserve(parts.size() * 2);
  double total_mass = 0.0;
  for (const WeightedInterval& w : parts) {
    if (w.prob < 0.0) {
      return Status::InvalidArgument("FlattenToDisjoint: negative weight");
    }
    if (w.range.width() < kMinWidth && w.prob > 0.0) {
      return Status::InvalidArgument(
          "FlattenToDisjoint: zero-width interval with positive mass");
    }
    total_mass += w.prob;
    cuts.push_back(w.range.lo);
    cuts.push_back(w.range.hi);
  }
  if (total_mass <= 0.0) {
    return Status::InvalidArgument("FlattenToDisjoint: zero total mass");
  }
  SortCutsMonotone(&cuts);
  cuts.erase(std::unique(cuts.begin(), cuts.end(),
                         [](double a, double b) {
                           return std::fabs(a - b) < kMinWidth;
                         }),
             cuts.end());

  // Accumulate density per elementary slice with a difference array:
  // O(parts log parts + slices) instead of walking every covered slice per
  // part (the walk is quadratic when many wide intervals overlap, and this
  // accumulation is the hot inner step of the chain sweep's progressive
  // compaction). A parallel cover counter keeps slices no interval covers
  // at exactly zero density — the float prefix sum alone would leave
  // cancellation residue there and emit phantom buckets.
  const size_t n_slices = cuts.size() - 1;
  std::vector<double> diff(n_slices + 1, 0.0);
  std::vector<int32_t> cover(n_slices + 1, 0);
  for (const WeightedInterval& w : parts) {
    if (w.prob <= 0.0) continue;
    const double d = w.prob / w.range.width();
    const auto lo_it = std::lower_bound(cuts.begin(), cuts.end(),
                                        w.range.lo - kMinWidth);
    const size_t s = static_cast<size_t>(lo_it - cuts.begin());
    const auto hi_it = std::lower_bound(cuts.begin() + static_cast<ptrdiff_t>(s),
                                        cuts.end(), w.range.hi - kMinWidth);
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
    if (covering == 0) running = 0.0;  // drop cancellation residue exactly
    density[s] = running;
  }

  // Emit slices with positive mass, merging equal-density neighbours (this
  // is what keeps the paper's [70,90) bucket whole in Fig. 7).
  std::vector<Bucket> out;
  out.reserve(n_slices);
  for (size_t s = 0; s < n_slices; ++s) {
    const double w = cuts[s + 1] - cuts[s];
    const double mass = density[s] * w;
    if (mass <= 0.0) continue;
    const bool contiguous =
        !out.empty() && std::fabs(out.back().range.hi - cuts[s]) < kMinWidth;
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
  // Normalize (mass was conserved up to float error).
  for (Bucket& b : out) b.prob /= total_mass;
  return Histogram1D::Make(std::move(out));
}

Histogram1D Compact(const Histogram1D& h, size_t max_buckets) {
  if (h.NumBuckets() <= max_buckets || max_buckets == 0) return h;
  std::vector<Bucket> bs = h.buckets();
  // The shared size-dispatched greedy merge (hist/greedy_merge.h) — the
  // same loop the chain sweeper's progressive compaction runs on
  // thread-local scratch. Its merge sequence is identical to the
  // full-rescan reference (ties break toward the smaller left index),
  // pinned by the randomized equivalence test.
  GreedyMergeScratch scratch;
  GreedyMergeToCap(&bs, max_buckets, &scratch);
  auto result = Histogram1D::Make(std::move(bs));
  assert(result.ok());
  return std::move(result).value();
}

StatusOr<Histogram1D> Convolve(const Histogram1D& a, const Histogram1D& b,
                               size_t max_buckets) {
  if (a.empty() || b.empty()) {
    return Status::InvalidArgument("Convolve: empty histogram");
  }
  std::vector<WeightedInterval> parts;
  parts.reserve(a.NumBuckets() * b.NumBuckets());
  for (const Bucket& x : a.buckets()) {
    for (const Bucket& y : b.buckets()) {
      const double p = x.prob * y.prob;
      if (p <= 0.0) continue;
      parts.emplace_back(x.range + y.range, p);
    }
  }
  PCDE_ASSIGN_OR_RETURN(flat, FlattenToDisjoint(std::move(parts)));
  return Compact(flat, max_buckets);
}

namespace {

// Merges the breakpoints of two histograms over the union of supports.
std::vector<double> UnionCuts(const Histogram1D& p, const Histogram1D& q) {
  std::vector<double> cuts;
  for (const Bucket& b : p.buckets()) {
    cuts.push_back(b.range.lo);
    cuts.push_back(b.range.hi);
  }
  for (const Bucket& b : q.buckets()) {
    cuts.push_back(b.range.lo);
    cuts.push_back(b.range.hi);
  }
  SortCutsMonotone(&cuts);
  cuts.erase(std::unique(cuts.begin(), cuts.end(),
                         [](double a, double b) {
                           return std::fabs(a - b) < kMinWidth;
                         }),
             cuts.end());
  return cuts;
}

}  // namespace

double KlDivergence(const Histogram1D& p, const Histogram1D& q,
                    double epsilon) {
  if (p.empty() || q.empty()) return 0.0;
  const std::vector<double> cuts = UnionCuts(p, q);
  const double support = cuts.back() - cuts.front();
  double kl = 0.0;
  for (size_t s = 0; s + 1 < cuts.size(); ++s) {
    const Interval slice(cuts[s], cuts[s + 1]);
    const double mp = p.Mass(slice);
    if (mp <= 0.0) continue;
    double mq = q.Mass(slice);
    // Epsilon-smooth q with a uniform component over the union support.
    mq = (1.0 - epsilon) * mq + epsilon * slice.width() / support;
    kl += mp * (SafeLog(mp) - SafeLog(mq));
  }
  return std::max(kl, 0.0);
}

double L1Distance(const Histogram1D& p, const Histogram1D& q) {
  if (p.empty() || q.empty()) return 2.0;
  const std::vector<double> cuts = UnionCuts(p, q);
  double l1 = 0.0;
  for (size_t s = 0; s + 1 < cuts.size(); ++s) {
    const Interval slice(cuts[s], cuts[s + 1]);
    l1 += std::fabs(p.Mass(slice) - q.Mass(slice));
  }
  return l1;
}

}  // namespace hist
}  // namespace pcde
