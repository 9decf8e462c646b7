#include "core/chain_estimator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>

#include "common/mathutil.h"
#include "common/simd.h"
#include "hist/histogram_nd.h"

namespace pcde {
namespace core {

using hist::Histogram1D;
using hist::HistogramND;

namespace {

/// Dense separator marginals beyond this many cells fall back to an exact
/// ordered map (unreachable through the production pipeline, where rank is
/// capped at HybridParams::max_instantiated_rank).
constexpr uint64_t kMaxDenseSeparatorCells = uint64_t{1} << 22;

/// Budget on sum-entry capacity retained by a thread's recycled sums
/// buffers (~6 MB); beyond it, harvested buffers are freed instead.
constexpr size_t kMaxPooledSumEntries = size_t{1} << 18;

}  // namespace

size_t ChainSweeper::BoxKeyHash::operator()(const BoxKey& k) const {
  uint64_t h = Mix64(k.n);
  for (uint32_t i = 0; i < k.n; ++i) h = Mix64(h ^ k.ids[i]);
  return static_cast<size_t>(h);
}

size_t ChainSweeper::IntervalPool::BitsHash::operator()(const Bits& b) const {
  return static_cast<size_t>(Mix64(b.lo ^ Mix64(b.hi)));
}

ChainSweeper::BoxId ChainSweeper::IntervalPool::Intern(const Interval& iv) {
  const Bits bits{CanonicalDoubleBits(iv.lo), CanonicalDoubleBits(iv.hi)};
  const auto [it, inserted] =
      index_.emplace(bits, static_cast<BoxId>(intervals_.size()));
  if (inserted) intervals_.push_back(iv);
  return it->second;
}

void ChainSweeper::IntervalPool::Clear() {
  intervals_.clear();
  index_.clear();
}

ChainSweeper::Scratch& ChainSweeper::LocalScratch() {
  static thread_local Scratch scratch;
  return scratch;
}

void ChainSweeper::SumsSoA::Append(const SumsSoA& src) {
  lo.insert(lo.end(), src.lo.begin(), src.lo.end());
  hi.insert(hi.end(), src.hi.begin(), src.hi.end());
  prob.insert(prob.end(), src.prob.begin(), src.prob.end());
}

void ChainSweeper::SumsSoA::AppendShiftScale(const SumsSoA& src, double dlo,
                                             double dhi, double w) {
  const size_t m = size();
  const size_t n = src.size();
  if (n == 0) return;
  const size_t needed = m + n;
  if (needed > capacity()) {
    // Geometric growth: a group receives one append per matching
    // transition, and exact-fit reallocation per append is quadratic.
    const size_t grown = std::max(needed, 2 * capacity());
    lo.reserve(grown);
    hi.reserve(grown);
    prob.reserve(grown);
  }
  lo.resize(needed);
  hi.resize(needed);
  prob.resize(needed);
  simd::ShiftScaleTo(src.lo.data(), src.hi.data(), src.prob.data(), n, dlo,
                     dhi, w, lo.data() + m, hi.data() + m, prob.data() + m);
}

double ChainSweeper::GroupMass(const Group& g) {
  // Left-to-right scalar sum: this value feeds compaction and demotion
  // decisions, so its summation order must stay fixed across backends.
  double m = 0.0;
  for (double p : g.sums.prob) m += p;
  return m;
}

void ChainSweeper::CompactSums(SumsSoA* sums, size_t cap) {
  const size_t n = sums->size();
  if (n <= cap) return;
  double mass = 0.0;
  for (double p : sums->prob) mass += p;
  if (mass <= 0.0) {
    sums->clear();
    return;
  }
  // Inflate degenerate sums as Finalize does, then flatten and compact them
  // with the hist kernel.
  hist::FlattenScratch& fs = LocalScratch().flatten;
  fs.lo.resize(n);
  fs.hi.resize(n);
  simd::InflateTo(sums->lo.data(), sums->hi.data(), n,
                  Interval::kDefaultInflateEps, fs.lo.data(), fs.hi.data());
  const Status flat = hist::FlattenAndCompact(
      fs.lo.data(), fs.hi.data(), sums->prob.data(), n, cap, &fs);
  if (!flat.ok()) return;  // a rejected sum set stays uncompacted
  // The kernel normalizes to 1; the sums keep their mass.
  sums->clear();
  for (const hist::Bucket& b : fs.buckets) {
    sums->PushBack(b.range, b.prob * mass);
  }
}

void ChainSweeper::CloseGroup(Group* g) {
  Interval shift(0.0, 0.0);
  for (uint32_t j = 0; j < g->key.n; ++j) {
    shift = shift + pool_.Get(g->key.ids[j]);
  }
  if (shift.lo != 0.0 || shift.hi != 0.0) {
    simd::ShiftInPlace(g->sums.lo.data(), g->sums.hi.data(), g->sums.size(),
                       shift.lo, shift.hi);
  }
  g->key = BoxKey{};
}

void ChainSweeper::MaybeCompactPool() {
  size_t in_use = 0;
  for (const Group& g : groups_) in_use += g.key.n;
  if (pool_.size() <= std::max<size_t>(1024, 4 * in_use)) return;
  IntervalPool fresh;
  for (Group& g : groups_) {
    for (uint32_t j = 0; j < g.key.n; ++j) {
      g.key.ids[j] = fresh.Intern(pool_.Get(g.key.ids[j]));
    }
  }
  pool_ = std::move(fresh);
}

ChainSweeper::ChainSweeper(const ChainOptions& options) : options_(options) {
  Group init;
  init.sums.PushBack(Interval(0.0, 0.0), 1.0);
  groups_.push_back(std::move(init));
}

void ChainSweeper::ApplyPart(const DecompositionPart& part,
                             size_t next_overlap_start) {
  const HistogramND& joint = part.variable->joint;
  const auto& buckets = joint.buckets();
  const size_t s = part.start;
  const size_t m = part.rank();
  const size_t e = part.end();

  // Open suffix after this part: the contiguous positions [next_begin, e).
  // Position -> slot is therefore arithmetic, not a search.
  size_t next_begin = std::min(std::max(next_overlap_start, s), e);
  // Positions before open_begin_ were already closed into the running sums
  // by an earlier part (the open-dim cap folds excess separator positions
  // early). Re-adding this part's boxes for them would double-count those
  // costs, so the local dims [0, n_marg) are marginalized out instead —
  // transitions differing only there share key and shift, so their
  // probabilities merge into exactly the marginal — and such a position
  // cannot re-open. Under force_independence every part is an independent
  // factor by definition (the LB semantics), so nothing is marginalized.
  const size_t consumed = options_.force_independence
                              ? s
                              : std::min(std::max(open_begin_, s), e);
  next_begin = std::max(next_begin, consumed);
  if (e - next_begin > kMaxOpenDims) next_begin = e - kMaxOpenDims;
  const size_t n_next = e - next_begin;
  const size_t n_marg = consumed - s;

  // Current open positions [open_begin_, open_begin_ + cur_n), shared by
  // every keyed group (key.n is either cur_n or 0 for the overflow /
  // initial group).
  size_t cur_n = 0;
  bool any_unkeyed = false;
  for (const Group& g : groups_) {
    cur_n = std::max<size_t>(cur_n, g.key.n);
    any_unkeyed |= g.key.n == 0;
  }

  // O dims: local dims of this part conditioned by the open boxes — the
  // overlap of [open_begin_, open_begin_ + cur_n) with [s, e), a contiguous
  // subrange on both sides.
  size_t o_pos_lo = std::max(s, open_begin_);
  size_t o_pos_hi = std::min(e, open_begin_ + cur_n);
  if (options_.force_independence || o_pos_hi < o_pos_lo) o_pos_hi = o_pos_lo;
  const size_t n_o = o_pos_hi - o_pos_lo;
  const size_t o_slot0 = o_pos_lo - open_begin_;  // first conditioned slot
  const size_t o_local0 = o_pos_lo - s;           // first conditioned dim

  // Per-bucket, per-part tables over the positive-mass buckets.
  Scratch& sc = LocalScratch();
  sc.live.clear();
  for (uint32_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b].prob > 0.0) sc.live.push_back(b);
  }
  const size_t n_live = sc.live.size();

  // Next-open slots fed by non-O dims (O slots are filled per transition
  // from the intersection): slot q holds local dim next_begin - s + q.
  // An O dim is next-open iff its position falls in [next_begin, e).
  auto local_of_slot = [&](size_t q) { return next_begin - s + q; };
  auto is_o_local = [&](size_t local) {
    return local >= o_local0 && local < o_local0 + n_o;
  };
  size_t n_non_o_open = 0;
  for (size_t q = 0; q < n_next; ++q) {
    if (!is_o_local(local_of_slot(q))) ++n_non_o_open;
  }

  // Dense separator marginal over the O dims, from this part's own
  // histogram — this makes each factor a proper conditional distribution.
  sc.cond_w.assign(n_live, 0.0);
  if (n_o > 0) {
    sc.sep_stride.assign(n_o, 1);
    uint64_t sep_cells = 1;
    bool dense = true;
    for (size_t d = 0; d < n_o; ++d) {
      sc.sep_stride[d] = sep_cells;
      const uint64_t dim_buckets = joint.NumDimBuckets(o_local0 + d);
      if (sep_cells > kMaxDenseSeparatorCells / std::max<uint64_t>(dim_buckets, 1)) {
        dense = false;
        break;
      }
      sep_cells *= dim_buckets;
    }
    if (dense) {
      sc.sep_marginal.assign(sep_cells, 0.0);
      for (const HistogramND::BucketRef hb : buckets) {
        uint64_t flat = 0;
        for (size_t d = 0; d < n_o; ++d) {
          flat += hb.idx[o_local0 + d] * sc.sep_stride[d];
        }
        sc.sep_marginal[flat] += hb.prob;
      }
      for (size_t i = 0; i < n_live; ++i) {
        const HistogramND::BucketRef hb = buckets[sc.live[i]];
        uint64_t flat = 0;
        for (size_t d = 0; d < n_o; ++d) {
          flat += hb.idx[o_local0 + d] * sc.sep_stride[d];
        }
        const double marginal = sc.sep_marginal[flat];
        sc.cond_w[i] = marginal > 0.0 ? hb.prob / marginal : 0.0;
      }
    } else {
      // Exact fallback for separators too wide to materialize densely.
      std::map<std::vector<uint32_t>, double> sep_mass;
      std::vector<uint32_t> sk(n_o);
      for (const HistogramND::BucketRef hb : buckets) {
        for (size_t d = 0; d < n_o; ++d) sk[d] = hb.idx[o_local0 + d];
        sep_mass[sk] += hb.prob;
      }
      for (size_t i = 0; i < n_live; ++i) {
        const HistogramND::BucketRef hb = buckets[sc.live[i]];
        for (size_t d = 0; d < n_o; ++d) sk[d] = hb.idx[o_local0 + d];
        const double marginal = sep_mass[sk];
        sc.cond_w[i] = marginal > 0.0 ? hb.prob / marginal : 0.0;
      }
    }
  } else {
    for (size_t i = 0; i < n_live; ++i) sc.cond_w[i] = buckets[sc.live[i]].prob;
  }

  // O-dim boxes per live bucket (intersected per transition), the interval
  // sum of the non-O dims that close here, and the interned boxes of the
  // non-O dims that open.
  sc.o_box.assign(n_live * n_o, Interval());
  sc.close_shift.assign(n_live, Interval(0.0, 0.0));
  sc.open_ids.assign(n_live * n_non_o_open, 0);
  // Raw interned O-dim boxes, used by unkeyed (unconditioned) groups whose
  // transitions open O dims without intersecting them.
  const bool need_raw_o = any_unkeyed && n_o > 0;
  sc.raw_o_ids.assign(need_raw_o ? n_live * n_o : 0, 0);
  std::vector<BoxId>& raw_o_ids = sc.raw_o_ids;
  for (size_t i = 0; i < n_live; ++i) {
    const HistogramND::BucketRef hb = buckets[sc.live[i]];
    size_t open_out = i * n_non_o_open;
    for (size_t local = 0; local < m; ++local) {
      if (local < n_marg) continue;  // already-counted position: marginalize
      const Interval box = joint.Box(hb, local);
      if (is_o_local(local)) {
        sc.o_box[i * n_o + (local - o_local0)] = box;
        if (need_raw_o) {
          raw_o_ids[i * n_o + (local - o_local0)] = pool_.Intern(box);
        }
      } else if (local >= next_begin - s) {
        sc.open_ids[open_out++] = pool_.Intern(box);
      } else {
        sc.close_shift[i] = sc.close_shift[i] + box;
      }
    }
  }

  // The sweep: every (group, bucket) pair produces one transition; states
  // landing on the same open-box tuple merge. Transient groups recycle
  // their sums buffers through sums_pool — a part can materialize
  // thousands of groups, and a fresh allocation per group dominates the
  // rebuild otherwise.
  for (Group& g : sc.next_groups) {
    if (g.sums.capacity() > 0 &&
        sc.sums_pool_entries + g.sums.capacity() <= kMaxPooledSumEntries) {
      sc.sums_pool_entries += g.sums.capacity();
      g.sums.clear();
      sc.sums_pool.push_back(std::move(g.sums));
    }
  }
  sc.next_groups.clear();
  // Flat open-addressing transition index: linear probing over a bare u32
  // lane, keys living in next_groups itself. Sized so the load factor
  // stays under 1/2 (doubling reinserts every surviving key); the seed
  // size tracks the incoming group count, the sweep's best predictor of
  // the outgoing one.
  constexpr uint32_t kEmptyGroup = UINT32_MAX;
  size_t n_slots = 64;
  while (n_slots < 4 * (groups_.size() + 1)) n_slots <<= 1;
  sc.group_slots.assign(n_slots, kEmptyGroup);
  size_t slot_mask = n_slots - 1;
  auto group_for = [&](const BoxKey& key) -> Group& {
    size_t slot = BoxKeyHash()(key) & slot_mask;
    while (sc.group_slots[slot] != kEmptyGroup) {
      Group& g = sc.next_groups[sc.group_slots[slot]];
      if (g.key == key) return g;
      slot = (slot + 1) & slot_mask;
    }
    if (2 * (sc.next_groups.size() + 1) > n_slots) {
      n_slots <<= 1;
      slot_mask = n_slots - 1;
      sc.group_slots.assign(n_slots, kEmptyGroup);
      for (uint32_t gi = 0; gi < sc.next_groups.size(); ++gi) {
        size_t re = BoxKeyHash()(sc.next_groups[gi].key) & slot_mask;
        while (sc.group_slots[re] != kEmptyGroup) re = (re + 1) & slot_mask;
        sc.group_slots[re] = gi;
      }
      slot = BoxKeyHash()(key) & slot_mask;
      while (sc.group_slots[slot] != kEmptyGroup) slot = (slot + 1) & slot_mask;
    }
    sc.group_slots[slot] = static_cast<uint32_t>(sc.next_groups.size());
    sc.next_groups.emplace_back();
    Group& fresh = sc.next_groups.back();
    fresh.key = key;
    if (!sc.sums_pool.empty()) {
      fresh.sums = std::move(sc.sums_pool.back());
      sc.sums_pool.pop_back();
      sc.sums_pool_entries -= fresh.sums.capacity();
    }
    return fresh;
  };

  Interval inter[kMaxOpenDims];
  for (const Group& g : groups_) {
    if (GroupMass(g) <= 0.0) continue;
    const bool conditioned = g.key.n > 0 && n_o > 0;

    // Boxes of slots this part does not condition close now, unconditioned.
    Interval stale_shift(0.0, 0.0);
    for (uint32_t j = 0; j < g.key.n; ++j) {
      if (conditioned && j >= o_slot0 && j < o_slot0 + n_o) continue;
      stale_shift = stale_shift + pool_.Get(g.key.ids[j]);
    }

    for (size_t i = 0; i < n_live; ++i) {
      const HistogramND::BucketRef hb = buckets[sc.live[i]];
      double weight;
      Interval shift = stale_shift + sc.close_shift[i];
      BoxKey key;
      key.n = static_cast<uint32_t>(n_next);
      size_t open_in = i * n_non_o_open;
      for (size_t q = 0; q < n_next; ++q) {
        if (!is_o_local(local_of_slot(q))) key.ids[q] = sc.open_ids[open_in++];
      }

      if (conditioned) {
        // Geometric overlap of the state's open boxes with this bucket.
        double frac = 1.0;
        for (size_t d = 0; d < n_o; ++d) {
          const Interval& state_box = pool_.Get(g.key.ids[o_slot0 + d]);
          inter[d] = state_box.Intersect(sc.o_box[i * n_o + d]);
          frac *= state_box.width() > 0.0
                      ? std::max(inter[d].width(), 0.0) / state_box.width()
                      : 0.0;
          if (frac <= 0.0) break;
        }
        if (frac <= 0.0) continue;
        weight = frac * sc.cond_w[i];
        if (weight <= 0.0) continue;
        for (size_t d = 0; d < n_o; ++d) {
          const size_t local = o_local0 + d;
          if (local >= next_begin - s) {
            key.ids[local - (next_begin - s)] = pool_.Intern(inter[d]);
          } else {
            shift = shift + inter[d];
          }
        }
      } else {
        // Unconditioned group: every O dim is new to it — raw bucket boxes
        // open, the rest close into the running sum.
        weight = hb.prob;
        for (size_t d = 0; d < n_o; ++d) {
          const size_t local = o_local0 + d;
          if (local >= next_begin - s) {
            key.ids[local - (next_begin - s)] = raw_o_ids[i * n_o + d];
          } else {
            shift = shift + sc.o_box[i * n_o + d];
          }
        }
      }

      Group& out = group_for(key);
      out.sums.AppendShiftScale(g.sums, shift.lo, shift.hi, weight);
    }
  }

  size_t states = 0;
  for (Group& g : sc.next_groups) {
    CompactSums(&g.sums, options_.sums_per_box_cap);
    states += g.sums.size();
  }
  max_states_ = std::max(max_states_, states);

  // Bound the group count: demote the lowest-mass groups into one
  // unconditioned overflow group (their open boxes fold into the sums),
  // compacting the overflow incrementally so each batch stays small.
  for (Group& g : groups_) {
    if (g.sums.capacity() > 0 &&
        sc.sums_pool_entries + g.sums.capacity() <= kMaxPooledSumEntries) {
      sc.sums_pool_entries += g.sums.capacity();
      g.sums.clear();
      sc.sums_pool.push_back(std::move(g.sums));
    }
  }
  groups_.clear();
  open_begin_ = next_begin;
  if (sc.next_groups.size() > options_.max_groups && options_.max_groups > 0) {
    sc.by_mass.clear();
    sc.by_mass.reserve(sc.next_groups.size());
    for (uint32_t gi = 0; gi < sc.next_groups.size(); ++gi) {
      sc.by_mass.emplace_back(GroupMass(sc.next_groups[gi]), gi);
    }
    const size_t keep = options_.max_groups - 1;
    std::nth_element(
        sc.by_mass.begin(), sc.by_mass.begin() + static_cast<ptrdiff_t>(keep),
        sc.by_mass.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    Group overflow;
    for (size_t i = keep; i < sc.by_mass.size(); ++i) {
      Group& g = sc.next_groups[sc.by_mass[i].second];
      CloseGroup(&g);
      overflow.sums.Append(g.sums);
      g.sums.clear();
      if (overflow.sums.size() > 4 * options_.sums_per_box_cap) {
        CompactSums(&overflow.sums, options_.sums_per_box_cap);
      }
    }
    groups_.reserve(keep + 1);
    for (size_t i = 0; i < keep; ++i) {
      groups_.push_back(std::move(sc.next_groups[sc.by_mass[i].second]));
    }
    if (!overflow.sums.empty()) {
      CompactSums(&overflow.sums, options_.sums_per_box_cap);
      // Merge with a kept unconditioned group if one survived.
      Group* target = nullptr;
      for (Group& g : groups_) {
        if (g.key.n == 0) {
          target = &g;
          break;
        }
      }
      if (target == nullptr) {
        groups_.push_back(std::move(overflow));
      } else {
        target->sums.Append(overflow.sums);
        CompactSums(&target->sums, options_.sums_per_box_cap);
      }
    }
  } else {
    groups_.swap(sc.next_groups);
  }
  MaybeCompactPool();
}

double ChainSweeper::CdfUpperBoundAt(double x) const {
  double below = 0.0;
  double total = 0.0;
  for (const Group& g : groups_) {
    double open_min = 0.0;
    for (uint32_t j = 0; j < g.key.n; ++j) {
      open_min += pool_.Get(g.key.ids[j]).lo;
    }
    for (size_t i = 0; i < g.sums.size(); ++i) {
      const double p = g.sums.prob[i];
      if (p <= 0.0) continue;
      total += p;
      if (g.sums.lo[i] + open_min <= x) below += p;
    }
  }
  // Destroyed mass renormalizes at Finalize and can concentrate anywhere,
  // so the surviving states stop bounding the final CDF.
  if (total < 1.0 - 1e-9) return 1.0;
  return below >= total ? 1.0 : below / total;
}

double ChainSweeper::AppendSupportPoints(
    std::vector<std::pair<double, double>>* optimistic,
    std::vector<std::pair<double, double>>* pessimistic) const {
  double total = 0.0;
  for (const Group& g : groups_) {
    double open_lo = 0.0;
    double open_hi = 0.0;
    for (uint32_t j = 0; j < g.key.n; ++j) {
      const Interval& iv = pool_.Get(g.key.ids[j]);
      open_lo += iv.lo;
      open_hi += iv.hi;
    }
    for (size_t i = 0; i < g.sums.size(); ++i) {
      const double p = g.sums.prob[i];
      if (p <= 0.0) continue;
      total += p;
      optimistic->emplace_back(g.sums.lo[i] + open_lo, p);
      pessimistic->emplace_back(g.sums.hi[i] + open_hi, p);
    }
  }
  return total;
}

StatusOr<Histogram1D> ChainSweeper::Finalize() const {
  hist::FlattenScratch& fs = LocalScratch().flatten;
  fs.lo.clear();
  fs.hi.clear();
  fs.prob.clear();
  double total = 0.0;
  for (const Group& g : groups_) {
    Interval open_shift(0.0, 0.0);
    for (uint32_t j = 0; j < g.key.n; ++j) {
      open_shift = open_shift + pool_.Get(g.key.ids[j]);
    }
    for (size_t i = 0; i < g.sums.size(); ++i) {
      const double p = g.sums.prob[i];
      if (p <= 0.0) continue;
      const Interval closed = (g.sums.interval(i) + open_shift).Inflated();
      fs.lo.push_back(closed.lo);
      fs.hi.push_back(closed.hi);
      fs.prob.push_back(p);
      total += p;
    }
  }
  if (total < kMinTotalMass) {
    return Status::FailedPrecondition(
        "ChainSweeper: probability mass destroyed by separator mismatch");
  }
  PCDE_RETURN_NOT_OK(hist::FlattenAndCompact(
      fs.lo.data(), fs.hi.data(), fs.prob.data(), fs.prob.size(),
      options_.max_result_buckets, &fs));
  return Histogram1D::FromFlattened(fs);
}

StatusOr<Histogram1D> EstimateFromDecomposition(const Decomposition& de,
                                                const ChainOptions& options,
                                                ChainDiagnostics* diagnostics,
                                                PhaseTimer* jc_timer,
                                                PhaseTimer* mc_timer,
                                                const CancelToken* cancel) {
  if (de.empty()) {
    return Status::InvalidArgument("EstimateFromDecomposition: empty DE");
  }
  ChainDiagnostics diag;
  diag.variables_used = de.size();

  for (int attempt = 0; attempt < 2; ++attempt) {
    ChainOptions opts = options;
    opts.force_independence = options.force_independence || attempt == 1;
    diag.independence_fallback = attempt == 1;

    if (jc_timer != nullptr) jc_timer->Start();
    ChainSweeper sweeper(opts);
    for (size_t i = 0; i < de.size(); ++i) {
      if (CancelToken::Check(cancel)) {
        if (jc_timer != nullptr) jc_timer->Stop();
        return CancelToken::StatusOf(cancel);
      }
      const size_t next_start =
          i + 1 < de.size() ? de[i + 1].start : de[i].end();
      sweeper.ApplyPart(de[i], next_start);
    }
    if (jc_timer != nullptr) jc_timer->Stop();

    ScopedPhase mc_phase(mc_timer);
    auto result = sweeper.Finalize();
    diag.max_states = std::max(diag.max_states, sweeper.max_states());
    if (result.ok()) {
      if (diagnostics != nullptr) *diagnostics = diag;
      return result;
    }
    if (result.status().code() != StatusCode::kFailedPrecondition) {
      return result.status();
    }
    // else: mass destroyed; retry with independence.
  }
  return Status::Internal(
      "EstimateFromDecomposition: zero mass even under independence");
}

double DecompositionEntropy(const Decomposition& de) {
  double h = 0.0;
  for (size_t i = 0; i < de.size(); ++i) {
    h += de[i].variable->joint.DifferentialEntropy();
    if (i == 0) continue;
    // Separator with the previous part: positions [s_i, e_{i-1}).
    const size_t sep_begin = de[i].start;
    const size_t sep_end = std::min(de[i - 1].end(), de[i].end());
    if (sep_end <= sep_begin) continue;
    std::vector<size_t> dims;
    for (size_t p = sep_begin; p < sep_end; ++p) dims.push_back(p - de[i].start);
    auto marginal = de[i].variable->joint.MarginalOverDims(dims);
    if (marginal.ok()) h -= marginal.value().DifferentialEntropy();
  }
  return h;
}

}  // namespace core
}  // namespace pcde
