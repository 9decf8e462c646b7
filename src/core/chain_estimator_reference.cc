#include "core/chain_estimator_reference.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>

#include "hist/histogram_nd.h"

namespace pcde {
namespace core {
namespace reference {

using hist::Histogram1D;
using hist::HistogramND;
using hist::WeightedInterval;

namespace {

// Verbatim copies of the seed's hist::FlattenToDisjoint and hist::Compact,
// frozen here so the reference kernel measures the *entire* pre-rewrite
// chain-estimation hot path: the bucket machinery is where the sweep spends
// most of its time, and later optimization of the shared hist:: routines
// must not silently shift this baseline.

constexpr double kMinWidth = 1e-12;

StatusOr<Histogram1D> ReferenceFlattenToDisjoint(
    std::vector<WeightedInterval> parts) {
  if (parts.empty()) {
    return Status::InvalidArgument("FlattenToDisjoint: no input intervals");
  }
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
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end(),
                         [](double a, double b) {
                           return std::fabs(a - b) < kMinWidth;
                         }),
             cuts.end());

  const size_t n_slices = cuts.size() - 1;
  std::vector<double> density(n_slices, 0.0);
  for (const WeightedInterval& w : parts) {
    if (w.prob <= 0.0) continue;
    const double d = w.prob / w.range.width();
    const auto lo_it = std::lower_bound(cuts.begin(), cuts.end(),
                                        w.range.lo - kMinWidth);
    size_t s = static_cast<size_t>(lo_it - cuts.begin());
    for (; s < n_slices && cuts[s] < w.range.hi - kMinWidth; ++s) {
      density[s] += d;
    }
  }

  std::vector<hist::Bucket> out;
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
  for (hist::Bucket& b : out) b.prob /= total_mass;
  return Histogram1D::Make(std::move(out));
}

Histogram1D ReferenceCompact(const Histogram1D& h, size_t max_buckets) {
  if (h.NumBuckets() <= max_buckets || max_buckets == 0) return h;
  std::vector<hist::Bucket> bs = h.buckets();

  auto merge_cost = [&bs](size_t i) {
    const hist::Bucket& a = bs[i];
    const hist::Bucket& b = bs[i + 1];
    const double w_merged = b.range.hi - a.range.lo;
    const double d = (a.prob + b.prob) / w_merged;
    const double da = a.prob / a.range.width();
    const double db = b.prob / b.range.width();
    const double gap = b.range.lo - a.range.hi;
    return (da - d) * (da - d) * a.range.width() +
           (db - d) * (db - d) * b.range.width() + d * d * std::max(gap, 0.0);
  };

  while (bs.size() > max_buckets) {
    size_t best = 0;
    double best_cost = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i + 1 < bs.size(); ++i) {
      const double c = merge_cost(i);
      if (c < best_cost) {
        best_cost = c;
        best = i;
      }
    }
    bs[best] = hist::Bucket(bs[best].range.lo, bs[best + 1].range.hi,
                            bs[best].prob + bs[best + 1].prob);
    bs.erase(bs.begin() + static_cast<ptrdiff_t>(best) + 1);
  }
  auto result = Histogram1D::Make(std::move(bs));
  assert(result.ok());
  return std::move(result).value();
}

}  // namespace

std::string ReferenceChainSweeper::GroupKey(
    const std::vector<Interval>& boxes) {
  std::string key;
  key.resize(boxes.size() * 2 * sizeof(double));
  char* out = key.data();
  for (const Interval& b : boxes) {
    std::memcpy(out, &b.lo, sizeof(double));
    out += sizeof(double);
    std::memcpy(out, &b.hi, sizeof(double));
    out += sizeof(double);
  }
  return key;
}

double ReferenceChainSweeper::GroupMass(const Group& g) {
  double m = 0.0;
  for (const SumEntry& s : g.sums) m += s.prob;
  return m;
}

void ReferenceChainSweeper::CompactSums(Group* g, size_t cap) {
  if (g->sums.size() <= cap) return;
  const double mass = GroupMass(*g);
  if (mass <= 0.0) {
    g->sums.clear();
    return;
  }
  std::vector<WeightedInterval> parts;
  parts.reserve(g->sums.size());
  for (const SumEntry& s : g->sums) {
    parts.emplace_back(s.sum.Inflated(), s.prob);
  }
  auto flat = ReferenceFlattenToDisjoint(std::move(parts));
  if (!flat.ok()) return;  // keep uncompacted on pathological input
  const Histogram1D compacted = ReferenceCompact(flat.value(), cap);
  g->sums.clear();
  for (const hist::Bucket& b : compacted.buckets()) {
    g->sums.push_back(SumEntry{b.range, b.prob * mass});
  }
}

ReferenceChainSweeper::ReferenceChainSweeper(const ChainOptions& options)
    : options_(options) {
  Group init;
  init.sums.push_back(SumEntry{Interval(0.0, 0.0), 1.0});
  groups_.emplace(GroupKey(init.boxes), std::move(init));
}

void ReferenceChainSweeper::ApplyPart(const DecompositionPart& part,
                                      size_t next_overlap_start) {
  const HistogramND& joint = part.variable->joint;
  const size_t s = part.start;
  const size_t m = part.rank();

  // Positions of this part that stay open for the next part.
  std::vector<size_t> next_open;
  for (size_t p = std::max(next_overlap_start, s); p < part.end(); ++p) {
    next_open.push_back(p);
  }

  using SepKey = std::vector<uint32_t>;
  std::unordered_map<std::string, Group> next_groups;
  // Separator marginals depend only on the O-dim layout, which is shared
  // by (nearly) all groups; cache them across the group loop.
  std::map<std::vector<size_t>, std::map<SepKey, double>> sep_cache;

  for (auto& [key, group] : groups_) {
    (void)key;
    if (GroupMass(group) <= 0.0) continue;
    // Split the group's open positions into those conditioned by this part
    // (O) and stale ones (closed now, unconditioned).
    std::vector<size_t> o_local;       // local dim index of each O position
    std::vector<size_t> o_group_slot;  // matching index into group.boxes
    Interval stale_shift(0.0, 0.0);
    for (size_t j = 0; j < group.positions.size(); ++j) {
      const size_t p = group.positions[j];
      if (!options_.force_independence && p >= s && p < part.end()) {
        o_local.push_back(p - s);
        o_group_slot.push_back(j);
      } else {
        stale_shift = stale_shift + group.boxes[j];
      }
    }

    // Separator marginal over the O dims, from this part's own histogram —
    // this makes each factor a proper conditional distribution.
    std::map<SepKey, double>& sep_mass = sep_cache[o_local];
    if (!o_local.empty() && sep_mass.empty()) {
      for (const HistogramND::BucketRef hb : joint.buckets()) {
        SepKey sk(o_local.size());
        for (size_t d = 0; d < o_local.size(); ++d) sk[d] = hb.idx[o_local[d]];
        sep_mass[sk] += hb.prob;
      }
    }

    for (const HistogramND::BucketRef hb : joint.buckets()) {
      if (hb.prob <= 0.0) continue;
      // Geometric overlap of the state's open boxes with this bucket.
      double frac = 1.0;
      std::vector<Interval> inter(o_local.size());
      for (size_t d = 0; d < o_local.size() && frac > 0.0; ++d) {
        const Interval box = joint.Box(hb, o_local[d]);
        const Interval& state_box = group.boxes[o_group_slot[d]];
        inter[d] = state_box.Intersect(box);
        frac *= state_box.width() > 0.0
                    ? std::max(inter[d].width(), 0.0) / state_box.width()
                    : 0.0;
      }
      if (frac <= 0.0) continue;
      double weight = frac * hb.prob;
      if (!o_local.empty()) {
        SepKey sk(o_local.size());
        for (size_t d = 0; d < o_local.size(); ++d) sk[d] = hb.idx[o_local[d]];
        const double marginal = sep_mass[sk];
        if (marginal <= 0.0) continue;
        weight = frac * hb.prob / marginal;
      }

      // Shift from dimensions closing at this step + the new open boxes.
      Interval shift = stale_shift;
      std::vector<Interval> new_boxes(next_open.size());
      std::vector<bool> filled(next_open.size(), false);
      auto slot_of = [&](size_t p) -> int {
        for (size_t q = 0; q < next_open.size(); ++q) {
          if (next_open[q] == p) return static_cast<int>(q);
        }
        return -1;
      };
      for (size_t d = 0; d < o_local.size(); ++d) {
        const size_t p = s + o_local[d];
        const int slot = slot_of(p);
        if (slot >= 0) {
          new_boxes[static_cast<size_t>(slot)] = inter[d];
          filled[static_cast<size_t>(slot)] = true;
        } else {
          shift = shift + inter[d];
        }
      }
      for (size_t local = 0; local < m; ++local) {
        const size_t p = s + local;
        if (std::find(o_local.begin(), o_local.end(), local) != o_local.end()) {
          continue;  // handled above
        }
        const Interval box = joint.Box(hb, local);
        const int slot = slot_of(p);
        if (slot >= 0) {
          new_boxes[static_cast<size_t>(slot)] = box;
          filled[static_cast<size_t>(slot)] = true;
        } else {
          shift = shift + box;
        }
      }
      (void)filled;  // all next_open positions lie in this part's range

      const std::string new_key = GroupKey(new_boxes);
      Group& out = next_groups[new_key];
      if (out.positions.empty() && !next_open.empty()) {
        out.positions = next_open;
        out.boxes = new_boxes;
      }
      for (const SumEntry& se : group.sums) {
        out.sums.push_back(SumEntry{se.sum + shift, se.prob * weight});
      }
    }
  }

  size_t states = 0;
  for (auto& [key, group] : next_groups) {
    (void)key;
    CompactSums(&group, options_.sums_per_box_cap);
    states += group.sums.size();
  }
  max_states_ = std::max(max_states_, states);

  // Bound the group count: demote the lowest-mass groups into one
  // unconditioned overflow group (their open boxes fold into the sums),
  // compacting the overflow incrementally so each batch stays small.
  if (next_groups.size() > options_.max_groups && options_.max_groups > 0) {
    std::vector<std::pair<double, const std::string*>> by_mass;
    by_mass.reserve(next_groups.size());
    for (const auto& [key, group] : next_groups) {
      by_mass.emplace_back(GroupMass(group), &key);
    }
    const size_t keep = options_.max_groups - 1;
    std::nth_element(
        by_mass.begin(), by_mass.begin() + static_cast<ptrdiff_t>(keep),
        by_mass.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    Group overflow;
    for (size_t i = keep; i < by_mass.size(); ++i) {
      const std::string key_copy = *by_mass[i].second;  // outlives the erase
      Group& g = next_groups[key_copy];
      Interval shift(0.0, 0.0);
      for (const Interval& b : g.boxes) shift = shift + b;
      for (const SumEntry& se : g.sums) {
        overflow.sums.push_back(SumEntry{se.sum + shift, se.prob});
      }
      next_groups.erase(key_copy);
      if (overflow.sums.size() > 4 * options_.sums_per_box_cap) {
        CompactSums(&overflow, options_.sums_per_box_cap);
      }
    }
    if (!overflow.sums.empty()) {
      CompactSums(&overflow, options_.sums_per_box_cap);
      Group& target = next_groups[GroupKey(overflow.boxes)];
      if (target.sums.empty()) {
        target = std::move(overflow);
      } else {
        target.sums.insert(target.sums.end(), overflow.sums.begin(),
                           overflow.sums.end());
        CompactSums(&target, options_.sums_per_box_cap);
      }
    }
  }

  groups_ = std::move(next_groups);
}

double ReferenceChainSweeper::MassRemaining() const {
  double m = 0.0;
  for (const auto& [key, group] : groups_) {
    (void)key;
    m += GroupMass(group);
  }
  return m;
}

double ReferenceChainSweeper::MinSum() const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [key, group] : groups_) {
    (void)key;
    double open_min = 0.0;
    for (const Interval& b : group.boxes) open_min += b.lo;
    for (const SumEntry& se : group.sums) {
      if (se.prob > 0.0) best = std::min(best, se.sum.lo + open_min);
    }
  }
  return best;
}

StatusOr<Histogram1D> ReferenceChainSweeper::Finalize() const {
  std::vector<WeightedInterval> parts_out;
  double total = 0.0;
  for (const auto& [key, group] : groups_) {
    (void)key;
    Interval open_shift(0.0, 0.0);
    for (const Interval& b : group.boxes) open_shift = open_shift + b;
    for (const SumEntry& se : group.sums) {
      if (se.prob <= 0.0) continue;
      parts_out.emplace_back((se.sum + open_shift).Inflated(), se.prob);
      total += se.prob;
    }
  }
  if (total < kMinTotalMass) {
    return Status::FailedPrecondition(
        "ReferenceChainSweeper: probability mass destroyed by separator "
        "mismatch");
  }
  PCDE_ASSIGN_OR_RETURN(flat,
                        ReferenceFlattenToDisjoint(std::move(parts_out)));
  return ReferenceCompact(flat, options_.max_result_buckets);
}

StatusOr<Histogram1D> ReferenceEstimateFromDecomposition(
    const Decomposition& de, const ChainOptions& options,
    ChainDiagnostics* diagnostics, PhaseTimer* jc_timer,
    PhaseTimer* mc_timer) {
  if (de.empty()) {
    return Status::InvalidArgument(
        "ReferenceEstimateFromDecomposition: empty DE");
  }
  ChainDiagnostics diag;
  diag.variables_used = de.size();

  for (int attempt = 0; attempt < 2; ++attempt) {
    ChainOptions opts = options;
    opts.force_independence = options.force_independence || attempt == 1;
    diag.independence_fallback = attempt == 1;

    if (jc_timer != nullptr) jc_timer->Start();
    ReferenceChainSweeper sweeper(opts);
    for (size_t i = 0; i < de.size(); ++i) {
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
      "ReferenceEstimateFromDecomposition: zero mass even under independence");
}

}  // namespace reference
}  // namespace core
}  // namespace pcde
