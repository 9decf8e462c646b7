#include "hist/histogram_nd.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

#include "common/mathutil.h"
#include "hist/flatten.h"
#include "hist/raw_distribution.h"

namespace pcde {
namespace hist {

namespace {
constexpr double kMassTolerance = 1e-6;
}

HistogramND HistogramND::FromValidated(
    const std::vector<std::vector<double>>& dim_boundaries,
    const std::vector<HyperBucket>& buckets) {
  auto payload = std::make_shared<OwnedPayload>();
  payload->bound_off.reserve(dim_boundaries.size() + 1);
  payload->bound_off.push_back(0);
  for (const auto& bounds : dim_boundaries) {
    payload->bounds.insert(payload->bounds.end(), bounds.begin(), bounds.end());
    payload->bound_off.push_back(payload->bounds.size());
  }
  payload->probs.reserve(buckets.size());
  payload->idx.reserve(buckets.size() * dim_boundaries.size());
  for (const HyperBucket& hb : buckets) {
    payload->probs.push_back(hb.prob);
    payload->idx.insert(payload->idx.end(), hb.idx.begin(), hb.idx.end());
  }
  HistogramND h;
  h.bounds_ = payload->bounds.data();
  h.bound_off_ = payload->bound_off.data();
  h.probs_ = payload->probs.data();
  h.idx_ = payload->idx.data();
  h.ndims_ = static_cast<uint32_t>(dim_boundaries.size());
  h.nbuckets_ = static_cast<uint32_t>(buckets.size());
  h.owner_ = std::move(payload);
  return h;
}

HistogramND HistogramND::FromFlatUnchecked(
    std::shared_ptr<const void> keepalive, const double* bounds,
    const uint64_t* bound_off, uint32_t ndims, const double* probs,
    const uint32_t* idx, uint32_t nbuckets) {
  HistogramND h;
  h.bounds_ = bounds;
  h.bound_off_ = bound_off;
  h.probs_ = probs;
  h.idx_ = idx;
  h.ndims_ = ndims;
  h.nbuckets_ = nbuckets;
  h.owner_ = std::move(keepalive);
  return h;
}

StatusOr<HistogramND> HistogramND::Make(
    std::vector<std::vector<double>> dim_boundaries,
    std::vector<HyperBucket> buckets) {
  if (dim_boundaries.empty()) {
    return Status::InvalidArgument("HistogramND: no dimensions");
  }
  for (const auto& bounds : dim_boundaries) {
    if (bounds.size() < 2) {
      return Status::InvalidArgument("HistogramND: dimension needs >= 2 bounds");
    }
    if (!std::is_sorted(bounds.begin(), bounds.end())) {
      return Status::InvalidArgument("HistogramND: unsorted boundaries");
    }
  }
  double total = 0.0;
  for (const HyperBucket& hb : buckets) {
    if (hb.idx.size() != dim_boundaries.size()) {
      return Status::InvalidArgument("HistogramND: index arity mismatch");
    }
    for (size_t d = 0; d < hb.idx.size(); ++d) {
      if (hb.idx[d] + 1 >= dim_boundaries[d].size()) {
        return Status::InvalidArgument("HistogramND: bucket index out of range");
      }
    }
    if (hb.prob < 0.0) {
      return Status::InvalidArgument("HistogramND: negative probability");
    }
    total += hb.prob;
  }
  if (std::fabs(total - 1.0) > kMassTolerance) {
    return Status::InvalidArgument("HistogramND: probabilities sum to " +
                                   std::to_string(total));
  }
  for (HyperBucket& hb : buckets) hb.prob /= total;
  return FromValidated(dim_boundaries, buckets);
}

StatusOr<HistogramND> HistogramND::BuildFromSamples(
    const std::vector<std::vector<double>>& samples,
    const AutoBucketOptions& options, size_t fixed_buckets_per_dim) {
  if (samples.empty()) {
    return Status::InvalidArgument("BuildFromSamples: no samples");
  }
  const size_t dims = samples.front().size();
  if (dims == 0) {
    return Status::InvalidArgument("BuildFromSamples: zero-dimensional");
  }
  for (const auto& s : samples) {
    if (s.size() != dims) {
      return Status::InvalidArgument("BuildFromSamples: ragged sample matrix");
    }
  }

  // Per-dimension boundaries via V-Optimal on the marginal.
  std::vector<std::vector<double>> boundaries(dims);
  for (size_t d = 0; d < dims; ++d) {
    std::vector<double> column(samples.size());
    for (size_t i = 0; i < samples.size(); ++i) column[i] = samples[i][d];
    const size_t b = fixed_buckets_per_dim > 0
                         ? fixed_buckets_per_dim
                         : AutoSelectBucketCount(column, options);
    const RawDistribution raw =
        RawDistribution::FromSamples(column, options.resolution);
    PCDE_ASSIGN_OR_RETURN(marginal, BuildVOptimalHistogram(raw, b));
    std::vector<double>& bounds = boundaries[d];
    // Keep both edges of every marginal bucket: gaps between support
    // clusters become their own (empty) index ranges, so per-dimension
    // densities are preserved exactly in the joint representation.
    for (const Bucket& bucket : marginal.buckets()) {
      if (bounds.empty() || bucket.range.lo > bounds.back() + 1e-12) {
        bounds.push_back(bucket.range.lo);
      }
      bounds.push_back(bucket.range.hi);
    }
  }

  // Tally hyper-bucket counts.
  std::map<std::vector<uint32_t>, double> counts;
  for (const auto& s : samples) {
    std::vector<uint32_t> idx(dims);
    for (size_t d = 0; d < dims; ++d) {
      const auto& bounds = boundaries[d];
      // Last boundary <= value; clamp into [0, nbuckets-1].
      auto it = std::upper_bound(bounds.begin(), bounds.end(), s[d]);
      size_t i = it == bounds.begin() ? 0 : static_cast<size_t>(it - bounds.begin()) - 1;
      i = std::min(i, bounds.size() - 2);
      idx[d] = static_cast<uint32_t>(i);
    }
    counts[idx] += 1.0;
  }
  std::vector<HyperBucket> buckets;
  buckets.reserve(counts.size());
  const double n = static_cast<double>(samples.size());
  for (auto& [idx, count] : counts) {
    buckets.push_back(HyperBucket{idx, count / n});
  }
  return Make(std::move(boundaries), std::move(buckets));
}

HistogramND HistogramND::FromHistogram1D(const Histogram1D& h) {
  assert(!h.empty());
  std::vector<double> bounds;
  std::vector<HyperBucket> buckets;
  // 1-D histograms may have gaps between buckets; represent each gap as a
  // zero-probability region by inserting both endpoints.
  for (size_t i = 0; i < h.NumBuckets(); ++i) {
    const Bucket& b = h.bucket(i);
    if (bounds.empty() || std::fabs(bounds.back() - b.range.lo) > 1e-12) {
      bounds.push_back(b.range.lo);
    }
    buckets.push_back(
        HyperBucket{{static_cast<uint32_t>(bounds.size() - 1)}, b.prob});
    bounds.push_back(b.range.hi);
  }
  auto result = Make({std::move(bounds)}, std::move(buckets));
  assert(result.ok());
  return std::move(result).value();
}

StatusOr<Histogram1D> HistogramND::Marginal1D(size_t dim) const {
  if (dim >= NumDims()) {
    return Status::InvalidArgument("Marginal1D: bad dimension");
  }
  std::vector<double> mass(NumDimBuckets(dim), 0.0);
  for (const BucketRef hb : buckets()) mass[hb.idx[dim]] += hb.prob;
  const double* bounds = bounds_ + bound_off_[dim];
  std::vector<Bucket> out;
  for (size_t i = 0; i < mass.size(); ++i) {
    if (mass[i] <= 0.0) continue;
    out.emplace_back(bounds[i], bounds[i + 1], mass[i]);
  }
  return Histogram1D::Make(std::move(out));
}

StatusOr<HistogramND> HistogramND::MarginalOverDims(
    const std::vector<size_t>& dims) const {
  if (dims.empty()) {
    return Status::InvalidArgument("MarginalOverDims: empty dim set");
  }
  for (size_t k = 0; k < dims.size(); ++k) {
    if (dims[k] >= NumDims()) {
      return Status::InvalidArgument("MarginalOverDims: bad dimension");
    }
    if (k > 0 && dims[k] <= dims[k - 1]) {
      return Status::InvalidArgument("MarginalOverDims: dims must increase");
    }
  }
  std::vector<std::vector<double>> bounds(dims.size());
  for (size_t k = 0; k < dims.size(); ++k) {
    const Span<double> b = boundaries(dims[k]);
    bounds[k].assign(b.begin(), b.end());
  }
  std::map<std::vector<uint32_t>, double> mass;
  for (const BucketRef hb : buckets()) {
    std::vector<uint32_t> idx(dims.size());
    for (size_t k = 0; k < dims.size(); ++k) idx[k] = hb.idx[dims[k]];
    mass[idx] += hb.prob;
  }
  std::vector<HyperBucket> out;
  out.reserve(mass.size());
  for (auto& [idx, p] : mass) out.push_back(HyperBucket{idx, p});
  return Make(std::move(bounds), std::move(out));
}

StatusOr<Histogram1D> HistogramND::SumDistribution(size_t max_buckets) const {
  if (NumBuckets() == 0) {
    return Status::InvalidArgument("SumDistribution: empty histogram");
  }
  FlattenScratch sc;
  for (const BucketRef hb : buckets()) {
    Interval sum(0.0, 0.0);
    for (size_t d = 0; d < NumDims(); ++d) sum = sum + Box(hb, d);
    sc.lo.push_back(sum.lo);
    sc.hi.push_back(sum.hi);
    sc.prob.push_back(hb.prob);
  }
  PCDE_RETURN_NOT_OK(FlattenAndCompact(sc.lo.data(), sc.hi.data(),
                                       sc.prob.data(), sc.prob.size(),
                                       max_buckets, &sc));
  return Histogram1D::FromFlattened(sc);
}

double HistogramND::DiscreteEntropy() const {
  double h = 0.0;
  for (uint32_t b = 0; b < nbuckets_; ++b) {
    const double p = probs_[b];
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

double HistogramND::DifferentialEntropy() const {
  double h = 0.0;
  for (const BucketRef hb : buckets()) {
    if (hb.prob <= 0.0) continue;
    double volume = 1.0;
    for (size_t d = 0; d < NumDims(); ++d) volume *= Box(hb, d).width();
    h -= hb.prob * std::log(hb.prob / std::max(volume, 1e-300));
  }
  return h;
}

double HistogramND::MinSum() const {
  double s = 0.0;
  for (size_t d = 0; d < NumDims(); ++d) s += bounds_[bound_off_[d]];
  return s;
}

double HistogramND::MaxSum() const {
  double s = 0.0;
  for (size_t d = 0; d < NumDims(); ++d) s += bounds_[bound_off_[d + 1] - 1];
  return s;
}

size_t HistogramND::MemoryUsageBytes() const {
  size_t bytes = 0;
  if (ndims_ > 0) {
    bytes += static_cast<size_t>(bound_off_[ndims_] - bound_off_[0]) *
             sizeof(double);
  }
  bytes += static_cast<size_t>(nbuckets_) *
           (NumDims() * sizeof(uint16_t) + sizeof(double));
  return bytes;
}

}  // namespace hist
}  // namespace pcde
