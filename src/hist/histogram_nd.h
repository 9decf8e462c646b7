// Multi-dimensional histograms (Sec. 3.2): compact representations of the
// joint travel-cost distribution of a path's edges. One dimension per edge;
// per-dimension bucket boundaries are chosen by V-Optimal with the Auto
// bucket-count procedure; hyper-bucket probabilities are empirical
// fractions. Storage is sparse: zero hyper-buckets are not materialized.
//
// The payload is flat structure-of-arrays — one boundary pool with
// per-dimension offsets, one probability lane, one bucket-major index lane —
// so a histogram is four contiguous ranges rather than a vector of
// per-bucket heap nodes. A histogram either owns its payload (construction
// from samples or explicit buckets) or is a zero-copy view into an external
// arena (the frozen weight-function model loaded from a binary artifact);
// both modes share the same accessors, and copying either is O(1).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/interval.h"
#include "common/span.h"
#include "common/status.h"
#include "hist/histogram1d.h"
#include "hist/voptimal.h"

namespace pcde {
namespace hist {

/// \brief Sparse N-dimensional histogram over hyper-buckets.
class HistogramND {
 public:
  /// \brief Construction input for one hyper-bucket: a per-dimension bucket
  /// index plus the joint probability that all dimensions fall in their
  /// respective buckets. Only used to *build* histograms; reads go through
  /// the flat BucketRef view below.
  struct HyperBucket {
    std::vector<uint32_t> idx;
    double prob = 0.0;
  };

  /// \brief Read view of one hyper-bucket in the flat payload: `idx` points
  /// at NumDims() contiguous per-dimension bucket indices.
  struct BucketRef {
    const uint32_t* idx = nullptr;
    double prob = 0.0;
  };

  /// \brief Random-access range of BucketRef over the flat payload.
  class BucketList {
   public:
    class iterator {
     public:
      iterator(const BucketList* list, size_t i) : list_(list), i_(i) {}
      BucketRef operator*() const { return (*list_)[i_]; }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator!=(const iterator& o) const { return i_ != o.i_; }
      bool operator==(const iterator& o) const { return i_ == o.i_; }

     private:
      const BucketList* list_;
      size_t i_;
    };

    BucketList() = default;
    BucketList(const double* probs, const uint32_t* idx, uint32_t ndims,
               uint32_t n)
        : probs_(probs), idx_(idx), ndims_(ndims), n_(n) {}

    size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    BucketRef operator[](size_t i) const {
      return BucketRef{idx_ + i * ndims_, probs_[i]};
    }
    BucketRef front() const { return (*this)[0]; }
    iterator begin() const { return iterator(this, 0); }
    iterator end() const { return iterator(this, n_); }

   private:
    const double* probs_ = nullptr;
    const uint32_t* idx_ = nullptr;
    uint32_t ndims_ = 0;
    uint32_t n_ = 0;
  };

  HistogramND() = default;

  /// Validated construction from per-dimension boundaries (each sorted,
  /// size >= 2) and sparse hyper-buckets (probabilities sum to 1 within
  /// tolerance), which are then divided by their sum. Bucket order is
  /// preserved.
  static StatusOr<HistogramND> Make(
      std::vector<std::vector<double>> dim_boundaries,
      std::vector<HyperBucket> buckets);

  /// \brief Builds the joint histogram from per-sample cost vectors
  /// (samples[i] has one cost per dimension). Boundaries per dimension come
  /// from V-Optimal on the marginal with the Auto bucket count (Sec. 3.2);
  /// pass `fixed_buckets_per_dim` > 0 to bypass Auto (the Sta-b baseline).
  static StatusOr<HistogramND> BuildFromSamples(
      const std::vector<std::vector<double>>& samples,
      const AutoBucketOptions& options, size_t fixed_buckets_per_dim = 0);

  /// Lifts a 1-D histogram into a 1-dimensional HistogramND (unit paths).
  static HistogramND FromHistogram1D(const Histogram1D& h);

  /// \brief Zero-copy view over an externally owned flat payload (the
  /// binary model arena). No validation — the caller (the artifact loader)
  /// has already validated offsets and indices. `keepalive` pins the arena;
  /// `bound_off` holds ndims + 1 offsets into `bounds`; `idx` is
  /// bucket-major with ndims entries per bucket.
  static HistogramND FromFlatUnchecked(std::shared_ptr<const void> keepalive,
                                       const double* bounds,
                                       const uint64_t* bound_off,
                                       uint32_t ndims, const double* probs,
                                       const uint32_t* idx, uint32_t nbuckets);

  size_t NumDims() const { return ndims_; }
  size_t NumBuckets() const { return nbuckets_; }
  BucketList buckets() const {
    return BucketList(probs_, idx_, ndims_, nbuckets_);
  }
  Span<double> boundaries(size_t dim) const {
    return Span<double>(bounds_ + bound_off_[dim],
                        static_cast<size_t>(bound_off_[dim + 1] -
                                            bound_off_[dim]));
  }
  size_t NumDimBuckets(size_t dim) const {
    return static_cast<size_t>(bound_off_[dim + 1] - bound_off_[dim]) - 1;
  }

  /// The bucket interval of `hb` along `dim`.
  Interval Box(const BucketRef& hb, size_t dim) const {
    const double* b = bounds_ + bound_off_[dim];
    const uint32_t i = hb.idx[dim];
    return Interval(b[i], b[i + 1]);
  }

  /// Support range along a dimension.
  Interval DimRange(size_t dim) const {
    const Span<double> b = boundaries(dim);
    return Interval(b.front(), b.back());
  }

  /// Marginal distribution of one dimension.
  StatusOr<Histogram1D> Marginal1D(size_t dim) const;

  /// Marginal over a subset of dimensions (indices into this histogram's
  /// dims, strictly increasing). The result's dimension k corresponds to
  /// dims[k].
  StatusOr<HistogramND> MarginalOverDims(const std::vector<size_t>& dims) const;

  /// \brief The Sec. 4.2 reduction: each hyper-bucket becomes the 1-D bucket
  /// [sum of lower bounds, sum of upper bounds), then overlapping buckets
  /// are rearranged into a disjoint histogram and compacted.
  StatusOr<Histogram1D> SumDistribution(size_t max_buckets = 64) const;

  /// Entropy treating hyper-buckets as discrete outcomes (nats).
  double DiscreteEntropy() const;

  /// Differential entropy of the piecewise-uniform joint density:
  /// -sum p ln(p / volume).
  double DifferentialEntropy() const;

  /// Minimum / maximum possible sum of the dimensions.
  double MinSum() const;
  double MaxSum() const;

  /// The paper's Fig. 12 storage accounting *model*: boundary values (8 B)
  /// + per hyper-bucket one 2-byte index per dimension and an 8-byte
  /// probability. Deliberately not the physical footprint — the flat lanes
  /// store 4-byte indices; use PathWeightFunction::ResidentBytes for real
  /// serving memory.
  size_t MemoryUsageBytes() const;

 private:
  /// Owned flat payload (construction path); view histograms keep the
  /// external arena alive through `owner_` instead.
  struct OwnedPayload {
    std::vector<double> bounds;
    std::vector<uint64_t> bound_off;  // ndims + 1
    std::vector<double> probs;
    std::vector<uint32_t> idx;  // nbuckets * ndims, bucket-major
  };

  /// Builds an owning histogram from validated AoS inputs.
  static HistogramND FromValidated(
      const std::vector<std::vector<double>>& dim_boundaries,
      const std::vector<HyperBucket>& buckets);

  const double* bounds_ = nullptr;     // boundary pool
  const uint64_t* bound_off_ = nullptr;  // ndims_ + 1 offsets into bounds_
  const double* probs_ = nullptr;      // nbuckets_
  const uint32_t* idx_ = nullptr;      // nbuckets_ * ndims_
  uint32_t ndims_ = 0;
  uint32_t nbuckets_ = 0;
  std::shared_ptr<const void> owner_;  // OwnedPayload or external arena
};

}  // namespace hist
}  // namespace pcde
