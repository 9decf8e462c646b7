#include "hist/histogram1d.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "common/mathutil.h"
#include "common/simd.h"
#include "hist/cut_binning.h"
#include "hist/flatten.h"
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

/// Make's mass check on a total that is already summed. Written so that a
/// NaN total fails it.
Status CheckUnitMass(double total) {
  if (std::fabs(total - 1.0) <= kMassTolerance) return Status::OK();
  return Status::InvalidArgument("bucket probabilities sum to " +
                                 std::to_string(total) + ", expected 1");
}

/// The flatten kernel's cut step: sorts scratch->cuts ascending, keeps the
/// first cut of every run within kMinWidth of the last kept one (the
/// predicate order of std::unique), and records in scratch->slice_of[j]
/// the kept index of input cut j.
void SortAndDedupeCuts(FlattenScratch* scratch) {
  std::vector<double>& cuts = scratch->cuts;
  const size_t m = cuts.size();
  SortCutsMonotone(&cuts, &scratch->order, &scratch->bins);
  scratch->slice_of.resize(m);
  size_t kept = 0;
  for (size_t j = 0; j < m; ++j) {
    const double v = cuts[j];
    if (kept == 0 || !(std::fabs(v - cuts[kept - 1]) < kMinWidth)) {
      cuts[kept++] = v;
    }
    scratch->slice_of[scratch->order[j]] = static_cast<uint32_t>(kept - 1);
  }
  cuts.resize(kept);
}

}  // namespace

StatusOr<Histogram1D> Histogram1D::Make(std::vector<Bucket> buckets) {
  if (buckets.empty()) {
    return Status::InvalidArgument("histogram needs at least one bucket");
  }
  // Before the sort: NaN fails every comparison, in it and in the checks
  // below.
  for (const Bucket& b : buckets) {
    if (!std::isfinite(b.range.lo) || !std::isfinite(b.range.hi)) {
      return Status::InvalidArgument("bucket bound is not finite");
    }
    if (std::isnan(b.prob)) {
      return Status::InvalidArgument("bucket probability is NaN");
    }
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
  PCDE_RETURN_NOT_OK(CheckUnitMass(total));
  Normalize(&buckets);
  return Histogram1D(std::move(buckets));
}

Histogram1D Histogram1D::FromFlattened(const FlattenScratch& scratch) {
  assert(!scratch.buckets.empty());
  return Histogram1D(scratch.buckets);
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

Status FlattenAndCompact(const double* lo, const double* hi,
                         const double* prob, size_t n, size_t max_buckets,
                         FlattenScratch* scratch) {
  FlattenScratch& sc = *scratch;
  if (n == 0) {
    return Status::InvalidArgument("FlattenToDisjoint: no input intervals");
  }
  sc.width.resize(n);
  simd::SubTo(hi, lo, n, sc.width.data());
  double total_mass = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(lo[i]) || !std::isfinite(hi[i])) {
      return Status::InvalidArgument("FlattenToDisjoint: non-finite bound");
    }
    if (!std::isfinite(prob[i])) {
      return Status::InvalidArgument("FlattenToDisjoint: non-finite weight");
    }
    if (prob[i] < 0.0) {
      return Status::InvalidArgument("FlattenToDisjoint: negative weight");
    }
    if (sc.width[i] < kMinWidth && prob[i] > 0.0) {
      return Status::InvalidArgument(
          "FlattenToDisjoint: zero-width interval with positive mass");
    }
    total_mass += prob[i];
  }
  if (total_mass <= 0.0) {
    return Status::InvalidArgument("FlattenToDisjoint: zero total mass");
  }
  sc.density.resize(n);
  simd::DivTo(prob, sc.width.data(), n, sc.density.data());

  // Breakpoints: both lanes back to back, so input cut i < n is interval
  // i's lower bound and n + i its upper one.
  std::vector<double>& cuts = sc.cuts;
  cuts.resize(2 * n);
  std::copy(lo, lo + n, cuts.begin());
  std::copy(hi, hi + n, cuts.begin() + static_cast<ptrdiff_t>(n));
  SortAndDedupeCuts(&sc);

  // Per-slice density by difference array. A bound's slice is
  // lower_bound(cuts, bound - kMinWidth). Its kept cut from the dedup
  // differs from that only when another kept cut lies exactly kMinWidth
  // below the bound, so two comparisons verify it and a binary search
  // settles the mismatch.
  const size_t n_slices = cuts.size() - 1;
  sc.diff.assign(n_slices + 1, 0.0);
  sc.cover.assign(n_slices + 1, 0);
  auto slice_for = [&cuts](size_t hint, double key) {
    if (cuts[hint] >= key && (hint == 0 || cuts[hint - 1] < key)) return hint;
    return static_cast<size_t>(
        std::lower_bound(cuts.begin(), cuts.end(), key) - cuts.begin());
  };
  for (size_t i = 0; i < n; ++i) {
    if (prob[i] <= 0.0) continue;
    const size_t s = slice_for(sc.slice_of[i], lo[i] - kMinWidth);
    const size_t s_end = std::min(
        n_slices, slice_for(sc.slice_of[n + i], hi[i] - kMinWidth));
    if (s >= s_end) continue;
    sc.diff[s] += sc.density[i];
    sc.diff[s_end] -= sc.density[i];
    ++sc.cover[s];
    --sc.cover[s_end];
  }

  // Emit positive-mass slices, merging equal-density neighbours.
  std::vector<Bucket>& out = sc.buckets;
  out.clear();
  double running = 0.0;
  int32_t covering = 0;
  for (size_t s = 0; s < n_slices; ++s) {
    covering += sc.cover[s];
    running += sc.diff[s];
    if (covering == 0) running = 0.0;  // drop cancellation residue exactly
    const double slice_mass = running * (cuts[s + 1] - cuts[s]);
    if (slice_mass <= 0.0) continue;
    if (!out.empty() && std::fabs(out.back().range.hi - cuts[s]) < kMinWidth) {
      Bucket& prev = out.back();
      const double prev_density = prev.prob / prev.range.width();
      if (std::fabs(prev_density - running) <=
          1e-9 * std::max(prev_density, running)) {
        prev.range.hi = cuts[s + 1];
        prev.prob += slice_mass;
        continue;
      }
    }
    out.emplace_back(cuts[s], cuts[s + 1], slice_mass);
  }
  if (out.empty()) {
    return Status::InvalidArgument("histogram needs at least one bucket");
  }

  // Two normalizations: by the input mass, then the float drift away.
  for (Bucket& b : out) b.prob /= total_mass;
  double flat_total = 0.0;
  for (const Bucket& b : out) flat_total += b.prob;
  PCDE_RETURN_NOT_OK(CheckUnitMass(flat_total));
  for (Bucket& b : out) b.prob /= flat_total;

  if (max_buckets > 0 && out.size() > max_buckets) {
    GreedyMergeToCap(&out, max_buckets, &sc.merge);
    double merged_total = 0.0;
    for (const Bucket& b : out) merged_total += b.prob;
    for (Bucket& b : out) b.prob /= merged_total;
  }
  return Status::OK();
}

StatusOr<Histogram1D> FlattenToDisjoint(std::vector<WeightedInterval> parts) {
  FlattenScratch sc;
  for (const WeightedInterval& w : parts) {
    sc.lo.push_back(w.range.lo);
    sc.hi.push_back(w.range.hi);
    sc.prob.push_back(w.prob);
  }
  PCDE_RETURN_NOT_OK(FlattenAndCompact(sc.lo.data(), sc.hi.data(),
                                       sc.prob.data(), parts.size(),
                                       /*max_buckets=*/0, &sc));
  return Histogram1D::FromFlattened(sc);
}

StatusOr<Histogram1D> Convolve(const Histogram1D& a, const Histogram1D& b,
                               size_t max_buckets) {
  if (a.empty() || b.empty()) {
    return Status::InvalidArgument("Convolve: empty histogram");
  }
  FlattenScratch sc;
  for (const Bucket& x : a.buckets()) {
    for (const Bucket& y : b.buckets()) {
      const double p = x.prob * y.prob;
      if (p <= 0.0) continue;
      sc.lo.push_back(x.range.lo + y.range.lo);
      sc.hi.push_back(x.range.hi + y.range.hi);
      sc.prob.push_back(p);
    }
  }
  PCDE_RETURN_NOT_OK(FlattenAndCompact(sc.lo.data(), sc.hi.data(),
                                       sc.prob.data(), sc.prob.size(),
                                       max_buckets, &sc));
  return Histogram1D::FromFlattened(sc);
}

namespace {

// Merges the breakpoints of two histograms over the union of supports.
std::vector<double> UnionCuts(const Histogram1D& p, const Histogram1D& q) {
  FlattenScratch sc;
  for (const Histogram1D* h : {&p, &q}) {
    for (const Bucket& b : h->buckets()) {
      sc.cuts.push_back(b.range.lo);
      sc.cuts.push_back(b.range.hi);
    }
  }
  SortAndDedupeCuts(&sc);
  return std::move(sc.cuts);
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
