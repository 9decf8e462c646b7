#include "core/weight_function.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "common/mathutil.h"

namespace pcde {
namespace core {

namespace {

constexpr uint32_t kEmptySlot = UINT32_MAX;

/// The flat arrays a built (non-loaded) model owns; sections point here.
struct BuiltPayload {
  std::vector<uint64_t> seq_off;
  std::vector<roadnet::EdgeId> seq_edges;
  std::vector<uint32_t> var_seq;
  std::vector<int32_t> intervals;
  std::vector<uint64_t> supports;
  std::vector<uint8_t> flags;
  std::vector<uint64_t> var_dim_off;
  std::vector<uint64_t> bound_off;
  std::vector<double> bounds;
  std::vector<uint64_t> bucket_off;
  std::vector<uint64_t> idx_off;
  std::vector<double> probs;
  std::vector<uint32_t> idx;
};

uint64_t HashBytes(uint64_t h, const void* data, size_t nbytes) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  h = Mix64(h ^ nbytes);
  size_t i = 0;
  for (; i + 8 <= nbytes; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, 8);
    h = Mix64(h ^ word);
  }
  if (i < nbytes) {
    uint64_t word = 0;
    std::memcpy(&word, p + i, nbytes - i);
    h = Mix64(h ^ word);
  }
  return h;
}

uint64_t HashSeqKey(const roadnet::EdgeId* edges, size_t n, int32_t interval) {
  uint64_t h = Mix64(0x77656967687466ull ^
                     (static_cast<uint64_t>(static_cast<uint32_t>(interval)) |
                      (static_cast<uint64_t>(n) << 32)));
  for (size_t i = 0; i < n; ++i) h = Mix64(h ^ edges[i]);
  return h;
}

}  // namespace

uint64_t PathWeightFunction::SectionChecksum(
    double alpha_seconds, const WeightFunctionSections& s) {
  uint64_t h = Mix64(0x70636465776631ull);  // "pcdewf1"
  h = Mix64(h ^ CanonicalDoubleBits(alpha_seconds));
  h = Mix64(h ^ s.num_vars);
  h = Mix64(h ^ s.num_seqs);
  for (const WeightFunctionSections::SectionView& sec : s.SectionTable()) {
    h = HashBytes(h, sec.data, sec.nbytes);
  }
  return h;
}

StatusOr<PathWeightFunction> PathWeightFunction::FromSections(
    const TimeBinning& binning, std::shared_ptr<const void> arena,
    const WeightFunctionSections& s, uint64_t max_front_edge_id,
    const uint64_t* precomputed_fingerprint) {
  auto corrupt = [](const char* what) {
    return Status::InvalidArgument(std::string("weight function sections: ") +
                                   what);
  };
  if (s.num_vars >= kEmptySlot || s.num_seqs > UINT32_MAX) {
    return corrupt("variable/sequence count overflows id space");
  }
  // The offset arrays have length >= 1 even for an empty model; the data
  // lanes may be absent only when their element count is zero. (Checked
  // before anything — SectionChecksum included — dereferences them.)
  if (s.seq_off == nullptr || s.var_dim_off == nullptr ||
      s.bound_off == nullptr || s.bucket_off == nullptr ||
      s.idx_off == nullptr) {
    return corrupt("null section");
  }
  if (s.num_vars > 0 &&
      (s.var_seq == nullptr || s.intervals == nullptr ||
       s.supports == nullptr || s.flags == nullptr)) {
    return corrupt("null section");
  }
  if ((s.TotalEdges() > 0 && s.seq_edges == nullptr) ||
      (s.TotalBounds() > 0 && s.bounds == nullptr) ||
      (s.TotalBuckets() > 0 && s.probs == nullptr) ||
      (s.TotalIdx() > 0 && s.idx == nullptr)) {
    return corrupt("null section");
  }

  // --- Structural validation: every offset array starts at 0, grows
  // monotonically, and cross-references stay in range, so the accessors
  // below can never read out of bounds.
  if (s.num_seqs > 0 || s.num_vars > 0) {
    if (s.seq_off[0] != 0) return corrupt("seq_off[0] != 0");
    for (uint64_t q = 0; q < s.num_seqs; ++q) {
      // Wraparound-safe (no `lhs < rhs + k` — a near-2^64 offset must not
      // wrap the comparison): each sequence needs >= 1 edge.
      if (s.seq_off[q + 1] <= s.seq_off[q]) {
        return corrupt("empty or non-monotone edge sequence");
      }
    }
  }
  if (s.num_vars > 0) {
    if (s.var_dim_off[0] != 0 || s.bucket_off[0] != 0 || s.idx_off[0] != 0 ||
        s.bound_off[0] != 0) {
      return corrupt("offset array does not start at 0");
    }
    // var_dim_off monotonicity first: it bounds every bound_off index the
    // per-variable scans below compute (non-monotone offsets would walk
    // past the bound_off section on a crafted artifact).
    for (uint64_t v = 0; v < s.num_vars; ++v) {
      if (s.var_dim_off[v + 1] < s.var_dim_off[v]) {
        return corrupt("non-monotone dimension offsets");
      }
    }
    const uint64_t total_dims = s.var_dim_off[s.num_vars];
    for (uint64_t d = 0; d < total_dims; ++d) {
      // Wraparound-safe form of bound_off[d+1] >= bound_off[d] + 2.
      if (s.bound_off[d + 1] < s.bound_off[d] ||
          s.bound_off[d + 1] - s.bound_off[d] < 2) {
        return corrupt("dimension with fewer than 2 boundaries");
      }
    }
    for (uint64_t v = 0; v < s.num_vars; ++v) {
      if (s.var_seq[v] >= s.num_seqs) return corrupt("var_seq out of range");
      const uint64_t rank =
          s.seq_off[s.var_seq[v] + 1] - s.seq_off[s.var_seq[v]];
      const uint64_t dims = s.var_dim_off[v + 1] - s.var_dim_off[v];
      if (dims != rank) {
        return corrupt("histogram dimensionality != path rank");
      }
      if (s.bucket_off[v + 1] < s.bucket_off[v] ||
          s.idx_off[v + 1] < s.idx_off[v]) {
        return corrupt("non-monotone bucket offsets");
      }
      const uint64_t nbuckets = s.bucket_off[v + 1] - s.bucket_off[v];
      if (nbuckets > UINT32_MAX || dims > UINT32_MAX) {
        return corrupt("bucket/dimension count overflow");
      }
      if (s.idx_off[v + 1] - s.idx_off[v] != nbuckets * dims) {
        return corrupt("index lane size != buckets * dims");
      }
      // Per-bucket index range check — one linear scan, no allocation.
      const uint32_t* idx = s.idx + s.idx_off[v];
      const uint64_t* bound_off = s.bound_off + s.var_dim_off[v];
      for (uint64_t b = 0; b < nbuckets; ++b) {
        for (uint64_t d = 0; d < dims; ++d) {
          const uint64_t dim_buckets = bound_off[d + 1] - bound_off[d] - 1;
          if (idx[b * dims + d] >= dim_buckets) {
            return corrupt("bucket index out of dimension range");
          }
        }
      }
      // Semantic payload validation, mirroring HistogramND::Make: the
      // artifact loader skips per-bucket parsing, so it must re-establish
      // the same guarantees (finite sorted boundaries; finite non-negative
      // probabilities summing to 1) a built model gets from Make.
      for (uint64_t d = 0; d < dims; ++d) {
        const double* bounds = s.bounds + bound_off[d];
        const uint64_t nb = bound_off[d + 1] - bound_off[d];
        for (uint64_t k = 0; k < nb; ++k) {
          if (!std::isfinite(bounds[k])) {
            return corrupt("non-finite boundary");
          }
          if (k > 0 && bounds[k - 1] > bounds[k]) {
            return corrupt("unsorted boundaries");
          }
        }
      }
      if (nbuckets == 0) return corrupt("variable without buckets");
      const double* probs = s.probs + s.bucket_off[v];
      double mass = 0.0;
      for (uint64_t b = 0; b < nbuckets; ++b) {
        if (!std::isfinite(probs[b]) || probs[b] < 0.0) {
          return corrupt("non-finite or negative bucket probability");
        }
        mass += probs[b];
      }
      if (std::fabs(mass - 1.0) > 1e-6) {  // HistogramND::Make's tolerance
        return corrupt("bucket mass not normalized");
      }
      const roadnet::EdgeId front = s.seq_edges[s.seq_off[s.var_seq[v]]];
      if (front >= max_front_edge_id) return corrupt("edge id out of range");
    }
  }

  PathWeightFunction wp(binning);
  wp.arena_ = std::move(arena);
  wp.sections_ = s;
  wp.fingerprint_ = precomputed_fingerprint != nullptr
                        ? *precomputed_fingerprint
                        : SectionChecksum(binning.alpha_seconds(), s);

  // --- Materialize the variable views (one Path copy per variable; the
  // histograms are zero-copy views into the arena).
  const size_t n = static_cast<size_t>(s.num_vars);
  wp.variables_.reserve(n);
  for (size_t v = 0; v < n; ++v) {
    const uint64_t e0 = s.seq_off[s.var_seq[v]];
    const uint64_t e1 = s.seq_off[s.var_seq[v] + 1];
    InstantiatedVariable var;
    var.path = roadnet::Path(
        std::vector<roadnet::EdgeId>(s.seq_edges + e0, s.seq_edges + e1));
    var.interval = s.intervals[v];
    var.support = static_cast<size_t>(s.supports[v]);
    var.from_speed_limit = (s.flags[v] & 1) != 0;
    var.id = static_cast<uint32_t>(v);
    var.joint = hist::HistogramND::FromFlatUnchecked(
        wp.arena_, s.bounds, s.bound_off + s.var_dim_off[v],
        static_cast<uint32_t>(e1 - e0), s.probs + s.bucket_off[v],
        s.idx + s.idx_off[v],
        static_cast<uint32_t>(s.bucket_off[v + 1] - s.bucket_off[v]));
    wp.variables_.push_back(std::move(var));
  }

  // --- CSR candidate lists by front edge, insertion (id) order preserved.
  roadnet::EdgeId max_edge = 0;
  for (const InstantiatedVariable& var : wp.variables_) {
    max_edge = std::max(max_edge, var.path.front());
  }
  wp.start_off_.assign(n == 0 ? 1 : static_cast<size_t>(max_edge) + 2, 0);
  for (const InstantiatedVariable& var : wp.variables_) {
    wp.start_off_[var.path.front() + 1] += 1;
  }
  for (size_t e = 1; e < wp.start_off_.size(); ++e) {
    wp.start_off_[e] += wp.start_off_[e - 1];
  }
  wp.start_ptrs_.assign(n, nullptr);
  {
    std::vector<uint64_t> cursor(wp.start_off_.begin(), wp.start_off_.end());
    for (const InstantiatedVariable& var : wp.variables_) {
      wp.start_ptrs_[cursor[var.path.front()]++] = &var;
    }
  }

  // --- Open-addressing (sequence, interval) -> id probe table.
  size_t slots = 16;
  while (slots < 2 * std::max<size_t>(n, 1)) slots <<= 1;
  wp.probe_.assign(slots, kEmptySlot);
  const size_t mask = slots - 1;
  for (size_t v = 0; v < n; ++v) {
    const InstantiatedVariable& var = wp.variables_[v];
    const std::vector<roadnet::EdgeId>& edges = var.path.edges();
    size_t slot = static_cast<size_t>(
                      HashSeqKey(edges.data(), edges.size(), var.interval)) &
                  mask;
    while (wp.probe_[slot] != kEmptySlot) {
      const InstantiatedVariable& other = wp.variables_[wp.probe_[slot]];
      if (other.interval == var.interval && other.path == var.path) {
        return corrupt("duplicate (path, interval) variable");
      }
      slot = (slot + 1) & mask;
    }
    wp.probe_[slot] = static_cast<uint32_t>(v);
  }
  return wp;
}

const InstantiatedVariable* PathWeightFunction::ProbeLookup(
    const roadnet::EdgeId* edges, size_t n, int32_t interval) const {
  if (variables_.empty() || n == 0) return nullptr;
  const size_t mask = probe_.size() - 1;
  size_t slot = static_cast<size_t>(HashSeqKey(edges, n, interval)) & mask;
  while (probe_[slot] != kEmptySlot) {
    const InstantiatedVariable& var = variables_[probe_[slot]];
    if (var.interval == interval && var.path.size() == n &&
        std::memcmp(var.path.edges().data(), edges,
                    n * sizeof(roadnet::EdgeId)) == 0) {
      return &var;
    }
    slot = (slot + 1) & mask;
  }
  return nullptr;
}

const InstantiatedVariable* PathWeightFunction::Lookup(
    const roadnet::Path& path, int32_t interval) const {
  return ProbeLookup(path.edges().data(), path.size(), interval);
}

VariableList PathWeightFunction::StartingAt(roadnet::EdgeId e) const {
  if (static_cast<size_t>(e) + 1 >= start_off_.size()) return VariableList();
  const uint64_t lo = start_off_[e];
  const uint64_t hi = start_off_[e + 1];
  return VariableList(start_ptrs_.data() + lo, static_cast<size_t>(hi - lo));
}

const InstantiatedVariable* PathWeightFunction::UnitVariable(
    roadnet::EdgeId e, const Interval& window) const {
  const InstantiatedVariable* best = nullptr;
  const InstantiatedVariable* fallback = nullptr;
  double best_overlap = 0.0;
  for (const InstantiatedVariable* v : StartingAt(e)) {
    if (v->rank() != 1) continue;
    if (v->interval == kAllDayInterval) {
      fallback = v;
      continue;
    }
    const double overlap =
        window.width() > 0.0
            ? window.OverlapRatioOf(binning_.IntervalOf(v->interval))
            : (binning_.IntervalOf(v->interval).Contains(window.lo) ? 1.0 : 0.0);
    if (overlap > best_overlap) {
      best_overlap = overlap;
      best = v;
    }
  }
  return best != nullptr ? best : fallback;
}

std::map<size_t, size_t> PathWeightFunction::CountByRank(
    bool include_speed_limit) const {
  std::map<size_t, size_t> counts;
  for (const InstantiatedVariable& v : variables_) {
    if (!include_speed_limit && v.from_speed_limit) continue;
    counts[v.rank()] += 1;
  }
  return counts;
}

size_t PathWeightFunction::NumCoveredEdges() const {
  std::vector<roadnet::EdgeId> edges;
  for (const InstantiatedVariable& v : variables_) {
    if (v.from_speed_limit) continue;
    for (roadnet::EdgeId e : v.path) edges.push_back(e);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges.size();
}

size_t PathWeightFunction::MemoryUsageBytes(bool include_speed_limit) const {
  size_t bytes = 0;
  for (const InstantiatedVariable& v : variables_) {
    if (!include_speed_limit && v.from_speed_limit) continue;
    bytes += v.joint.MemoryUsageBytes() +
             v.path.size() * sizeof(roadnet::EdgeId) + sizeof(int32_t);
  }
  return bytes;
}

size_t PathWeightFunction::ResidentBytes() const {
  size_t bytes = 0;
  for (const WeightFunctionSections::SectionView& sec :
       sections_.SectionTable()) {
    bytes += static_cast<size_t>(sec.nbytes);
  }
  bytes += variables_.capacity() * sizeof(InstantiatedVariable);
  for (const InstantiatedVariable& v : variables_) {
    bytes += v.path.size() * sizeof(roadnet::EdgeId);
  }
  bytes += start_off_.capacity() * sizeof(uint64_t) +
           start_ptrs_.capacity() * sizeof(const InstantiatedVariable*) +
           probe_.capacity() * sizeof(uint32_t);
  return bytes;
}

std::map<size_t, double> PathWeightFunction::MeanEntropyByRank() const {
  std::map<size_t, double> sums;
  std::map<size_t, size_t> counts;
  for (const InstantiatedVariable& v : variables_) {
    if (v.from_speed_limit) continue;
    const size_t group = std::min<size_t>(v.rank(), 4);  // ranks >= 4 pooled
    sums[group] += v.joint.DifferentialEntropy();
    counts[group] += 1;
  }
  std::map<size_t, double> means;
  for (const auto& [rank, total] : sums) {
    means[rank] = total / static_cast<double>(counts[rank]);
  }
  return means;
}

// ---------------------------------------------------------------------------
// WeightFunctionBuilder
// ---------------------------------------------------------------------------

WeightFunctionBuilder WeightFunctionBuilder::FromFrozen(
    const PathWeightFunction& frozen) {
  WeightFunctionBuilder builder(frozen.binning());
  // Id order is the original builder's insertion order (Freeze preserves
  // it), so replaying it reproduces that builder's deque layout and key
  // map exactly — subsequent Adds behave identically to Adds on the
  // original, which is what makes delta rebuilds fingerprint-identical to
  // full rebuilds over the concatenated batches.
  for (const InstantiatedVariable& var : frozen.variables()) {
    builder.Add(var);  // the joint copy is a view; its arena outlives frozen
  }
  return builder;
}

void WeightFunctionBuilder::Add(InstantiatedVariable variable) {
  Key key{variable.path.edges(), variable.interval};
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    variables_[it->second] = std::move(variable);
    return;
  }
  variables_.push_back(std::move(variable));
  by_key_.emplace(std::move(key), variables_.size() - 1);
}

StatusOr<PathWeightFunction> WeightFunctionBuilder::TryFreeze() && {
  auto payload = std::make_shared<BuiltPayload>();
  BuiltPayload& p = *payload;
  const size_t n = variables_.size();

  // Intern the edge sequences: distinct paths stored once (rank-1 paths in
  // particular are shared by every interval of an edge plus its fallback).
  std::unordered_map<Key, uint32_t, KeyHash> seq_ids;
  p.seq_off.push_back(0);
  p.var_seq.reserve(n);
  p.intervals.reserve(n);
  p.supports.reserve(n);
  p.flags.reserve(n);
  p.var_dim_off.reserve(n + 1);
  p.bucket_off.reserve(n + 1);
  p.idx_off.reserve(n + 1);
  p.var_dim_off.push_back(0);
  p.bucket_off.push_back(0);
  p.idx_off.push_back(0);
  p.bound_off.push_back(0);
  for (const InstantiatedVariable& var : variables_) {
    Key key{var.path.edges(), 0};  // interval irrelevant for interning
    auto [it, inserted] =
        seq_ids.emplace(std::move(key), static_cast<uint32_t>(seq_ids.size()));
    if (inserted) {
      p.seq_edges.insert(p.seq_edges.end(), var.path.edges().begin(),
                         var.path.edges().end());
      p.seq_off.push_back(p.seq_edges.size());
    }
    p.var_seq.push_back(it->second);
    p.intervals.push_back(var.interval);
    p.supports.push_back(var.support);
    p.flags.push_back(var.from_speed_limit ? 1 : 0);

    const hist::HistogramND& joint = var.joint;
    for (size_t d = 0; d < joint.NumDims(); ++d) {
      const Span<double> bounds = joint.boundaries(d);
      p.bounds.insert(p.bounds.end(), bounds.begin(), bounds.end());
      p.bound_off.push_back(p.bounds.size());
    }
    p.var_dim_off.push_back(p.var_dim_off.back() + joint.NumDims());
    const auto buckets = joint.buckets();
    for (size_t b = 0; b < buckets.size(); ++b) {
      const hist::HistogramND::BucketRef hb = buckets[b];
      p.probs.push_back(hb.prob);
      p.idx.insert(p.idx.end(), hb.idx, hb.idx + joint.NumDims());
    }
    p.bucket_off.push_back(p.probs.size());
    p.idx_off.push_back(p.idx.size());
  }

  WeightFunctionSections s;
  s.num_vars = n;
  s.num_seqs = seq_ids.size();
  s.seq_off = p.seq_off.data();
  s.seq_edges = p.seq_edges.data();
  s.var_seq = p.var_seq.data();
  s.intervals = p.intervals.data();
  s.supports = p.supports.data();
  s.flags = p.flags.data();
  s.var_dim_off = p.var_dim_off.data();
  s.bound_off = p.bound_off.data();
  s.bounds = p.bounds.data();
  s.bucket_off = p.bucket_off.data();
  s.idx_off = p.idx_off.data();
  s.probs = p.probs.data();
  s.idx = p.idx.data();
  return PathWeightFunction::FromSections(binning_, std::move(payload), s);
}

PathWeightFunction WeightFunctionBuilder::Freeze() && {
  auto result = std::move(*this).TryFreeze();
  if (!result.ok()) {
    std::fprintf(stderr, "WeightFunctionBuilder::Freeze: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

}  // namespace core
}  // namespace pcde
