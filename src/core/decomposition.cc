#include "core/decomposition.h"

#include <algorithm>

namespace pcde {
namespace core {

using roadnet::Path;

StatusOr<CandidateArray> DecompositionBuilder::BuildCandidateArray(
    const Path& query, double departure_time, size_t rank_cap) const {
  if (query.empty()) {
    return Status::InvalidArgument("BuildCandidateArray: empty query path");
  }
  CandidateArray array;
  array.query = query;
  array.departure_time = departure_time;
  array.rows.resize(query.size());

  const TimeBinning binning = view_.binning();
  // Per-rank overlap scratch, reused by every row.
  std::vector<double> best_overlap;
  // Eq. 3: UI_1 = [t, t]; UI_k = SAE(UI_{k-1}, V_{e_{k-1}}).
  Interval window(departure_time, departure_time);
  for (size_t k = 0; k < query.size(); ++k) {
    CandidateRow& row = array.rows[k];
    row.departure_window = window;
    const VariableList candidates = view_.StartingAt(query[k]);
    // Row k holds ranks 1..width: no variable of the edge is longer than
    // `longest`, so wider rows would only carry trailing nullptrs.
    size_t longest = 0;
    for (const InstantiatedVariable* v : candidates) {
      longest = std::max(longest, v->rank());
    }
    size_t width = std::min(longest, query.size() - k);
    if (rank_cap > 0) width = std::min(width, rank_cap);
    row.by_rank.assign(std::max<size_t>(width, 1), nullptr);
    best_overlap.assign(width, 0.0);

    // Spatially relevant variables starting at this row's edge; keep, per
    // rank, the temporally most relevant one (largest overlap ratio).
    for (const InstantiatedVariable* v : candidates) {
      const size_t r = v->rank();
      if (r == 0 || r > width) continue;
      const double overlap = Relevance(*v, query, k, window, binning);
      if (overlap > best_overlap[r - 1]) {
        best_overlap[r - 1] = overlap;
        row.by_rank[r - 1] = v;
      }
    }
    if (row.by_rank[0] == nullptr) {
      return Status::FailedPrecondition(
          "BuildCandidateArray: no unit variable for edge " +
          std::to_string(query[k]) +
          " (was the weight function instantiated over this graph?)");
    }

    // Shift-and-enlarge for the next row using this row's unit variable.
    const InstantiatedVariable* unit = row.by_rank[0];
    const double vmin = unit->joint.DimRange(0).lo;
    const double vmax = unit->joint.DimRange(0).hi;
    window = Interval(window.lo + vmin, window.hi + vmax);
  }
  return array;
}

std::vector<uint8_t> DecompositionBuilder::UnitCoverage(
    const Path& query) const {
  std::vector<uint8_t> covered(query.size(), 0);
  for (size_t k = 0; k < query.size(); ++k) {
    for (const InstantiatedVariable* v : view_.StartingAt(query[k])) {
      if (v->rank() == 1) {
        covered[k] = 1;
        break;
      }
    }
  }
  return covered;
}

namespace {

/// Appends `part` unless its span is contained in an already-selected part
/// (Algorithm 1's sub-path elimination; spans of the same query path, so
/// positional containment == the sub-path relation). Parts arrive in
/// increasing start order, so a kept part starts at or before `part` and
/// `part` is contained in one iff it ends no later than the furthest kept
/// end; kept ends strictly increase, so that is the last part's end.
void AppendIfNotContained(Decomposition* de, DecompositionPart part) {
  if (!de->empty() && part.end() <= de->back().end()) return;
  de->push_back(part);
}

}  // namespace

Decomposition DecompositionBuilder::Coarsest(const CandidateArray& array) {
  Decomposition de;
  for (size_t k = 0; k < array.rows.size(); ++k) {
    const InstantiatedVariable* v = array.rows[k].Highest();
    if (v == nullptr) continue;  // cannot happen after successful build
    AppendIfNotContained(&de, DecompositionPart{v, k});
  }
  return de;
}

Decomposition DecompositionBuilder::Random(const CandidateArray& array,
                                           Rng* rng) {
  Decomposition de;
  for (size_t k = 0; k < array.rows.size(); ++k) {
    const CandidateRow& row = array.rows[k];
    std::vector<const InstantiatedVariable*> available;
    for (const InstantiatedVariable* v : row.by_rank) {
      if (v != nullptr) available.push_back(v);
    }
    if (available.empty()) continue;
    const InstantiatedVariable* v = available[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(available.size()) - 1))];
    AppendIfNotContained(&de, DecompositionPart{v, k});
  }
  return de;
}

Decomposition DecompositionBuilder::PairwiseChain(const CandidateArray& array) {
  Decomposition de;
  for (size_t k = 0; k < array.rows.size(); ++k) {
    const CandidateRow& row = array.rows[k];
    const InstantiatedVariable* pair =
        row.by_rank.size() >= 2 ? row.by_rank[1] : nullptr;
    const InstantiatedVariable* v = pair != nullptr ? pair : row.by_rank[0];
    if (v == nullptr) continue;
    AppendIfNotContained(&de, DecompositionPart{v, k});
  }
  return de;
}

Decomposition DecompositionBuilder::UnitChain(const CandidateArray& array) {
  Decomposition de;
  for (size_t k = 0; k < array.rows.size(); ++k) {
    const InstantiatedVariable* v = array.rows[k].by_rank[0];
    if (v != nullptr) de.push_back(DecompositionPart{v, k});
  }
  return de;
}

Status DecompositionBuilder::Validate(const Decomposition& de,
                                      const Path& query) {
  if (de.empty()) return Status::InvalidArgument("empty decomposition");
  std::vector<bool> covered(query.size(), false);
  for (size_t i = 0; i < de.size(); ++i) {
    const DecompositionPart& p = de[i];
    // Condition (1): each part is a sub-path of the query at its position.
    if (p.end() > query.size()) {
      return Status::InvalidArgument("part exceeds query length");
    }
    for (size_t d = 0; d < p.rank(); ++d) {
      if (p.variable->path[d] != query[p.start + d]) {
        return Status::InvalidArgument("part path mismatch with query");
      }
      covered[p.start + d] = true;
    }
    // Condition (4): ordered by first edge.
    if (i > 0 && de[i - 1].start >= p.start) {
      return Status::InvalidArgument("parts not ordered by first edge");
    }
    // Condition (3): no part is a sub-path of another.
    for (size_t j = 0; j < de.size(); ++j) {
      if (i == j) continue;
      if (de[j].start <= p.start && p.end() <= de[j].end()) {
        return Status::InvalidArgument("a part is a sub-path of another");
      }
    }
  }
  // Condition (2): the parts cover the query.
  for (bool c : covered) {
    if (!c) return Status::InvalidArgument("parts do not cover the query");
  }
  return Status::OK();
}

bool DecompositionBuilder::IsCoarser(const Decomposition& a,
                                     const Decomposition& b) {
  bool strict = false;
  for (const DecompositionPart& pb : b) {
    bool contained = false;
    for (const DecompositionPart& pa : a) {
      if (pa.start <= pb.start && pb.end() <= pa.end()) {
        contained = true;
        if (pa.rank() != pb.rank() || pa.start != pb.start) strict = true;
        break;
      }
    }
    if (!contained) return false;
  }
  return strict;
}

}  // namespace core
}  // namespace pcde
