// Sort-free ordering of flatten cut points: the sort step of the hist
// flatten kernel (hist/flatten.h), which also orders the divergence union
// refinements.
//
// Cut positions are arithmetic on a contiguous open range, so instead of a
// comparison sort they are scattered into a monotone bucket grid spanning
// [min, max] — bucket index floor((x - min) * scale) is nondecreasing in x,
// so concatenating the buckets in grid order yields the globally ascending
// sequence — and each small bucket is finished with an insertion pass.
// The output is the ascending multiset, exactly what std::sort produces
// (doubles that compare equal are interchangeable downstream), so callers'
// tolerance-based dedup (kMinWidth) behaves byte-identically.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/simd.h"

namespace pcde {
namespace hist {

/// Reusable buffers for SortCutsMonotone; held in the flatten kernel's
/// scratch, so steady-state sorting allocates nothing.
struct CutBinningScratch {
  std::vector<uint32_t> counts;   // per-grid-bucket occupancy, then offsets
  std::vector<double> scattered;  // grid-ordered copy of the input
  std::vector<uint32_t> origins;  // matching original positions
  std::vector<std::pair<double, uint32_t>> pairs;  // skewed-bucket guard
};

namespace internal {

/// Insertion sort by value, carrying each value's original position along.
/// Exact ties keep their relative order, which is irrelevant downstream
/// (equal cuts land in the same dedup run either way).
inline void InsertionSortTracked(double* v, uint32_t* o, size_t n) {
  for (size_t i = 1; i < n; ++i) {
    const double x = v[i];
    const uint32_t xo = o[i];
    size_t j = i;
    for (; j > 0 && x < v[j - 1]; --j) {
      v[j] = v[j - 1];
      o[j] = o[j - 1];
    }
    v[j] = x;
    o[j] = xo;
  }
}

/// Value-ordered sort of a (values, origins) range: insertion pass for the
/// common few-element case, std::sort over pairs to bound pathological
/// (skewed or degenerate-grid) ranges.
inline void SortRangeTracked(double* v, uint32_t* o, size_t n,
                             CutBinningScratch* scratch) {
  if (n <= 48) {
    InsertionSortTracked(v, o, n);
    return;
  }
  scratch->pairs.resize(n);
  for (size_t k = 0; k < n; ++k) scratch->pairs[k] = {v[k], o[k]};
  std::sort(scratch->pairs.begin(), scratch->pairs.end(),
            [](const std::pair<double, uint32_t>& a,
               const std::pair<double, uint32_t>& b) {
              return a.first < b.first;
            });
  for (size_t k = 0; k < n; ++k) {
    v[k] = scratch->pairs[k].first;
    o[k] = scratch->pairs[k].second;
  }
}

}  // namespace internal

/// Sorts `cuts` ascending without a comparison sort over the full range:
/// one counting pass over the monotone grid, one scatter, and per-bucket
/// insertion passes (buckets hold ~1 element when cuts spread over the
/// range; a std::sort guard bounds pathologically skewed buckets).
/// Produces exactly the ascending order std::sort would, and reports in
/// `order` (resized to cuts->size()) the input position each output value
/// came from — the flatten kernel maps each interval bound straight to its
/// slice with it instead of binary-searching the deduped cut list per
/// entry.
inline void SortCutsMonotone(std::vector<double>* cuts,
                             std::vector<uint32_t>* order,
                             CutBinningScratch* scratch) {
  const size_t n = cuts->size();
  order->resize(n);
  uint32_t* const ord = order->data();
  for (size_t i = 0; i < n; ++i) ord[i] = static_cast<uint32_t>(i);
  if (n < 2) return;
  double* const v = cuts->data();
  if (n <= 24) {
    internal::InsertionSortTracked(v, ord, n);
    return;
  }

  double mn, mx;
  simd::MinMax(v, n, &mn, &mx);
  if (!(mx > mn)) return;  // all cuts equal: any order is sorted
  // One grid bucket per element on average; power of two so the clamp is
  // the only branch. The scale can overflow to inf for a subnormal range —
  // fall back to the guarded range sort for that degenerate input.
  size_t n_buckets = 1;
  while (n_buckets < n) n_buckets <<= 1;
  const double scale = static_cast<double>(n_buckets) / (mx - mn);
  if (!std::isfinite(scale)) {
    internal::SortRangeTracked(v, ord, n, scratch);
    return;
  }
  auto bucket_of = [mn, scale, n_buckets](double x) {
    const double t = (x - mn) * scale;
    size_t b = t >= 0.0 ? static_cast<size_t>(t) : 0;
    return b < n_buckets ? b : n_buckets - 1;
  };

  scratch->counts.assign(n_buckets + 1, 0);
  for (size_t i = 0; i < n; ++i) ++scratch->counts[bucket_of(v[i])];
  // Exclusive prefix: counts[b] becomes the write offset of bucket b.
  uint32_t offset = 0;
  for (size_t b = 0; b <= n_buckets; ++b) {
    const uint32_t c = scratch->counts[b];
    scratch->counts[b] = offset;
    offset += c;
  }
  scratch->scattered.resize(n);
  scratch->origins.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t at = scratch->counts[bucket_of(v[i])]++;
    scratch->scattered[at] = v[i];
    scratch->origins[at] = static_cast<uint32_t>(i);
  }
  // counts[b] now holds the *end* offset of bucket b (begin is b-1's end).
  uint32_t begin = 0;
  for (size_t b = 0; b < n_buckets; ++b) {
    const uint32_t end = scratch->counts[b];
    if (end - begin > 1) {
      internal::SortRangeTracked(scratch->scattered.data() + begin,
                                 scratch->origins.data() + begin,
                                 end - begin, scratch);
    }
    begin = end;
  }
  std::copy(scratch->scattered.begin(), scratch->scattered.end(), v);
  std::copy(scratch->origins.begin(), scratch->origins.end(), ord);
}

}  // namespace hist
}  // namespace pcde
