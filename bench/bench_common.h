// Shared setup for the per-figure benchmark harnesses: dataset
// construction, window (sub-path occurrence) counting, and selection of
// data-rich query paths. Each bench binary regenerates one table/figure of
// the paper's evaluation (Sec. 5); EXPERIMENTS.md records the shapes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/accuracy_optimal.h"
#include "baselines/methods.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_writer.h"
#include "core/estimator.h"
#include "core/instantiation.h"
#include "traj/generator.h"
#include "traj/store.h"

namespace pcde {
namespace bench {

/// Bench-scale datasets (laptop budget; see DESIGN.md substitutions).
inline constexpr size_t kTripsA = 12000;
inline constexpr size_t kTripsB = 16000;

struct BenchDataset {
  traj::Dataset data;
  traj::TrajectoryStore store;

  explicit BenchDataset(traj::Dataset ds)
      : data(std::move(ds)), store(data.MatchedSlice(1.0)) {}
};

inline BenchDataset MakeA(size_t trips = kTripsA) {
  return BenchDataset(traj::MakeDatasetA(trips));
}
inline BenchDataset MakeB(size_t trips = kTripsB) {
  return BenchDataset(traj::MakeDatasetB(trips));
}

/// A (window, interval) occurrence group: the qualified trajectories of a
/// candidate sub-path during one alpha-interval.
struct WindowGroup {
  roadnet::Path path;
  int32_t interval = 0;
  std::vector<traj::Occurrence> occurrences;
};

/// Enumerates (window, interval) groups of a given cardinality with at
/// least `min_support` qualified trajectories, ordered by support
/// (descending), capped at `limit`.
inline std::vector<WindowGroup> FrequentWindows(
    const traj::TrajectoryStore& store, const core::TimeBinning& binning,
    size_t cardinality, size_t min_support, size_t limit) {
  struct Key {
    std::vector<roadnet::EdgeId> edges;
    int32_t interval;
    bool operator==(const Key& o) const {
      return interval == o.interval && edges == o.edges;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t h = static_cast<size_t>(k.interval) * 0x9e3779b97f4a7c15ull + 1;
      for (roadnet::EdgeId e : k.edges) {
        h ^= static_cast<size_t>(e) + 0x9e3779b97f4a7c15ull + (h << 6) +
             (h >> 2);
      }
      return h;
    }
  };
  std::unordered_map<Key, std::vector<traj::Occurrence>, KeyHash> groups;
  for (size_t ti = 0; ti < store.NumTrajectories(); ++ti) {
    const traj::MatchedTrajectory& t = store.trajectory(ti);
    if (t.path.size() < cardinality) continue;
    for (size_t pos = 0; pos + cardinality <= t.path.size(); ++pos) {
      Key key{{t.path.edges().begin() + static_cast<ptrdiff_t>(pos),
               t.path.edges().begin() + static_cast<ptrdiff_t>(pos + cardinality)},
              binning.IndexOf(t.edge_enter_times[pos])};
      groups[key].push_back(
          traj::Occurrence{ti, pos, t.edge_enter_times[pos]});
    }
  }
  std::vector<WindowGroup> out;
  for (auto& [key, occs] : groups) {
    if (occs.size() < min_support) continue;
    out.push_back(WindowGroup{roadnet::Path(key.edges), key.interval,
                              std::move(occs)});
  }
  std::sort(out.begin(), out.end(), [](const WindowGroup& a, const WindowGroup& b) {
    return a.occurrences.size() > b.occurrences.size();
  });
  if (out.size() > limit) out.resize(limit);
  return out;
}

/// Random simple path biased toward popular (heavily traversed) edges, so
/// long synthetic queries (Figs. 15/16) run over instantiated variables
/// rather than pure speed-limit fallbacks: the successor edge is drawn
/// with probability proportional to its traversal count (plus one).
inline StatusOr<roadnet::Path> DataBiasedRandomPath(
    const roadnet::Graph& g, const traj::TrajectoryStore& store,
    size_t cardinality, Rng* rng, int max_attempts = 400) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    // Seed on an observed edge.
    const size_t ti = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(store.NumTrajectories()) - 1));
    const traj::MatchedTrajectory& t = store.trajectory(ti);
    if (t.path.empty()) continue;
    std::vector<roadnet::EdgeId> edges{t.path[0]};
    std::set<roadnet::VertexId> visited{g.edge(t.path[0]).from,
                                        g.edge(t.path[0]).to};
    while (edges.size() < cardinality) {
      const roadnet::VertexId head = g.edge(edges.back()).to;
      std::vector<roadnet::EdgeId> pool;
      std::vector<double> weights;
      for (roadnet::EdgeId e : g.OutEdges(head)) {
        if (visited.count(g.edge(e).to) != 0) continue;
        pool.push_back(e);
        weights.push_back(
            1.0 + static_cast<double>(store.EdgeOccurrenceCount(e)));
      }
      if (pool.empty()) break;
      const roadnet::EdgeId next = pool[rng->Categorical(weights)];
      edges.push_back(next);
      visited.insert(g.edge(next).to);
    }
    if (edges.size() == cardinality) return roadnet::Path(std::move(edges));
  }
  return Status::NotFound("DataBiasedRandomPath: none found");
}

/// Windows suitable for the paper's held-out ground-truth protocol
/// (Figs. 13/14): >= `beta` qualified trajectories AND every edge keeps at
/// least `beta + slack` qualified trajectories from *other* traffic in the
/// same interval, so sub-path coverage survives the exclusion.
inline std::vector<WindowGroup> HeldOutCandidates(
    const traj::TrajectoryStore& store, const core::TimeBinning& binning,
    size_t cardinality, size_t beta, size_t slack, size_t limit) {
  const auto windows = FrequentWindows(store, binning, cardinality, beta,
                                       std::max<size_t>(limit * 50, 4000));
  std::vector<WindowGroup> out;
  for (const auto& w : windows) {
    const Interval ij = binning.IntervalOf(w.interval);
    bool covered = true;
    for (size_t d = 0; d < w.path.size() && covered; ++d) {
      const size_t unit_quals =
          store.FindQualified(roadnet::Path({w.path[d]}), ij).size();
      covered = unit_quals >= w.occurrences.size() + beta + slack;
    }
    if (!covered) continue;
    out.push_back(w);
    if (out.size() >= limit) break;
  }
  return out;
}

/// A copy of the store without any trajectory qualified for one of the
/// given (window, interval) groups — the sparseness-restoring exclusion of
/// the Fig. 13/14 protocol.
inline traj::TrajectoryStore ExcludeWindows(
    const traj::TrajectoryStore& store,
    const std::vector<WindowGroup>& groups) {
  std::set<size_t> excluded;
  for (const auto& g : groups) {
    for (const auto& occ : g.occurrences) excluded.insert(occ.traj_index);
  }
  std::vector<traj::MatchedTrajectory> remaining;
  remaining.reserve(store.NumTrajectories());
  for (size_t i = 0; i < store.NumTrajectories(); ++i) {
    if (excluded.count(i) == 0) remaining.push_back(store.trajectory(i));
  }
  return traj::TrajectoryStore(std::move(remaining));
}

inline std::string Mb(size_t bytes) {
  return TableWriter::Num(static_cast<double>(bytes) / (1024.0 * 1024.0), 2) +
         " MB";
}

// ---------------------------------------------------------------------------
// BENCH_chain.json — the machine-readable perf trajectory of the chain
// estimation kernel, written by bench_chain_micro (see bench/README.md for
// the schema). One KernelSeries per measured configuration.
// ---------------------------------------------------------------------------

/// Tail levels a series may record, highest first. A timing's tail is the
/// highest of these with at least kMinSamplesBeyondTail samples above it;
/// below that the level names one or two slow samples, not a tail.
inline constexpr double kTailLevels[] = {0.99, 0.95, 0.90, 0.75};
inline constexpr size_t kMinSamplesBeyondTail = 10;

/// Latency/throughput summary of one measured kernel configuration.
/// For batch series, ops_per_sec is wall-clock batch throughput while
/// p50_ms and the tail are per-query latencies inside the batch (each
/// response's serve_seconds), and the cache_* fields carry the series'
/// query-cache traffic (all zero when no cache is attached).
struct KernelSeries {
  std::string name;        // e.g. "chain_sweep", "chain_sweep_reference"
  size_t iterations = 0;   // estimations measured
  double ops_per_sec = 0.0;
  double p50_ms = 0.0;
  /// The tail level (one of kTailLevels) and the latency there; 0 and 0
  /// when no level has enough samples above it (always so below 41
  /// samples), and the series records its median alone.
  double tail_level = 0.0;
  double tail_ms = 0.0;
  /// Every per-op latency (ms), sorted: the tail headlines compare two
  /// series at the level both support.
  std::vector<double> sorted_ms;
  size_t max_states = 0;   // peak sweeper states over the workload
  double jc_seconds = 0.0;  // total joint-computation (sweep) phase
  double mc_seconds = 0.0;  // total marginalization (finalize) phase
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Routing pruning attribution (route_dfs* series only; zero elsewhere):
  /// per-pruner cut counts and estimator clones of the recorded routes.
  uint64_t bound_pruned = 0;
  uint64_t incumbent_pruned = 0;
  uint64_t dominance_pruned = 0;
  uint64_t estimator_clones = 0;

  /// The sorted latency at level q (0 for an empty series).
  double QuantileMs(double q) const {
    if (sorted_ms.empty()) return 0.0;
    return sorted_ms[QuantileIndex(q, sorted_ms.size())];
  }

  /// Summarizes raw per-op latencies (seconds).
  static KernelSeries FromLatencies(std::string series_name,
                                    std::vector<double> latencies_s,
                                    size_t max_states_seen) {
    KernelSeries out;
    out.name = std::move(series_name);
    out.iterations = latencies_s.size();
    out.max_states = max_states_seen;
    if (latencies_s.empty()) return out;
    std::sort(latencies_s.begin(), latencies_s.end());
    double total = 0.0;
    for (double v : latencies_s) total += v;
    out.ops_per_sec = total > 0.0 ? static_cast<double>(latencies_s.size()) / total : 0.0;
    out.sorted_ms.reserve(latencies_s.size());
    for (double v : latencies_s) out.sorted_ms.push_back(v * 1e3);
    out.p50_ms = out.QuantileMs(0.50);
    const size_t n = latencies_s.size();
    for (double level : kTailLevels) {
      if (n - 1 - QuantileIndex(level, n) >= kMinSamplesBeyondTail) {
        out.tail_level = level;
        out.tail_ms = out.QuantileMs(level);
        break;
      }
    }
    return out;
  }

 private:
  static size_t QuantileIndex(double q, size_t n) {
    return std::min(n - 1, static_cast<size_t>(q * static_cast<double>(n)));
  }
};

/// The offline-build / online-serve cost record: instantiation time, the
/// model's serving footprint, and the PCDEWF1 artifact's size and
/// save/load latency (see bench/README.md for the JSON schema).
struct ModelSeries {
  size_t num_variables = 0;
  size_t resident_bytes = 0;    // PathWeightFunction::ResidentBytes
  double build_seconds = 0.0;   // InstantiationStats::build_seconds
  double save_seconds = 0.0;
  size_t artifact_bytes = 0;
  /// Buffered load, and the mmap load (shared page-cache copy across
  /// co-resident server processes).
  double load_seconds = 0.0;
  double mmap_load_seconds = 0.0;
};

/// The sharded-serving footprint record (ISSUE 10): the resident-memory
/// claim sharding exists for, measured after the bench served the whole
/// sharded workload (every shard attached). The acceptance criterion is
/// resident_bytes_max_shard strictly below mono_resident_bytes at >= 2
/// shards — no single shard costs as much as the unsplit model.
struct ShardedFootprint {
  size_t num_shards = 0;
  size_t resident_bytes_max_shard = 0;
  size_t mono_resident_bytes = 0;
};

/// Writes the BENCH_chain.json schema: a flat object with the bench id,
/// the kernel series, the optional model series, and the headline speedup
/// of the rewritten kernel over the reference kernel (when both series are
/// present).
inline bool WriteChainBenchJson(const std::string& path,
                                const std::string& bench_name,
                                const std::vector<KernelSeries>& series,
                                const ModelSeries* model = nullptr,
                                const ShardedFootprint* sharded = nullptr) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"kernels\": [\n",
               bench_name.c_str());
  for (size_t i = 0; i < series.size(); ++i) {
    const KernelSeries& s = series[i];
    const uint64_t cache_total = s.cache_hits + s.cache_misses;
    const double hit_rate =
        cache_total > 0
            ? static_cast<double>(s.cache_hits) / static_cast<double>(cache_total)
            : 0.0;
    // A tail only where enough samples lie beyond it (kTailLevels).
    const std::string tail =
        s.tail_level > 0.0 ? ", \"tail_level\": " + num(s.tail_level) +
                                 ", \"tail_ms\": " + num(s.tail_ms)
                           : "";
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"iterations\": %zu, "
                 "\"ops_per_sec\": %s, \"p50_ms\": %s%s, "
                 "\"max_states\": %zu, \"jc_seconds\": %s, "
                 "\"mc_seconds\": %s, \"cache_hits\": %llu, "
                 "\"cache_misses\": %llu, \"cache_hit_rate\": %s, "
                 "\"bound_pruned\": %llu, \"incumbent_pruned\": %llu, "
                 "\"dominance_pruned\": %llu, \"estimator_clones\": %llu}%s\n",
                 s.name.c_str(), s.iterations, num(s.ops_per_sec).c_str(),
                 num(s.p50_ms).c_str(), tail.c_str(), s.max_states,
                 num(s.jc_seconds).c_str(), num(s.mc_seconds).c_str(),
                 static_cast<unsigned long long>(s.cache_hits),
                 static_cast<unsigned long long>(s.cache_misses),
                 num(hit_rate).c_str(),
                 static_cast<unsigned long long>(s.bound_pruned),
                 static_cast<unsigned long long>(s.incumbent_pruned),
                 static_cast<unsigned long long>(s.dominance_pruned),
                 static_cast<unsigned long long>(s.estimator_clones),
                 i + 1 < series.size() ? "," : "");
  }
  std::fprintf(f, "  ]");
  if (model != nullptr) {
    std::fprintf(f,
                 ",\n  \"model\": {\n"
                 "    \"num_variables\": %zu,\n"
                 "    \"resident_bytes\": %zu,\n"
                 "    \"build_seconds\": %s,\n"
                 "    \"save_seconds\": %s,\n"
                 "    \"load_seconds\": %s,\n"
                 "    \"mmap_load_seconds\": %s,\n"
                 "    \"artifact_bytes\": %zu\n  }",
                 model->num_variables, model->resident_bytes,
                 num(model->build_seconds).c_str(),
                 num(model->save_seconds).c_str(),
                 num(model->load_seconds).c_str(),
                 num(model->mmap_load_seconds).c_str(), model->artifact_bytes);
  }
  const KernelSeries* rewrite = nullptr;
  const KernelSeries* reference = nullptr;
  const KernelSeries* batch1 = nullptr;
  const KernelSeries* batch8 = nullptr;
  const KernelSeries* batch_direct1 = nullptr;
  const KernelSeries* swap_publish = nullptr;
  const KernelSeries* swap_verified = nullptr;
  const KernelSeries* steady = nullptr;
  const KernelSeries* during_swap = nullptr;
  const KernelSeries* deadline_base = nullptr;
  const KernelSeries* deadline_overshoot = nullptr;
  const KernelSeries* overload_shed = nullptr;
  const KernelSeries* route_plain = nullptr;
  const KernelSeries* route_pruned = nullptr;
  const KernelSeries* sharded_est = nullptr;
  const KernelSeries* sharded_mono = nullptr;
  for (const KernelSeries& s : series) {
    if (s.name == "chain_sweep") rewrite = &s;
    if (s.name == "chain_sweep_reference") reference = &s;
    if (s.name == "estimate_batch_threads_1") batch1 = &s;
    if (s.name == "estimate_batch_threads_8") batch8 = &s;
    if (s.name == "estimate_batch_direct_threads_1") batch_direct1 = &s;
    if (s.name == "swap_publish") swap_publish = &s;
    if (s.name == "swap_verified_publish") swap_verified = &s;
    if (s.name == "estimate_steady") steady = &s;
    if (s.name == "estimate_during_swap") during_swap = &s;
    if (s.name == "estimate_deadline_baseline") deadline_base = &s;
    if (s.name == "estimate_deadline_overshoot") deadline_overshoot = &s;
    if (s.name == "overload_shed") overload_shed = &s;
    if (s.name == "route_dfs") route_plain = &s;
    if (s.name == "route_dfs_pruned") route_pruned = &s;
    if (s.name == "sharded_estimate") sharded_est = &s;
    if (s.name == "sharded_estimate_mono") sharded_mono = &s;
  }
  if (rewrite != nullptr && reference != nullptr &&
      reference->ops_per_sec > 0.0) {
    std::fprintf(f, ",\n  \"speedup_vs_reference\": %s",
                 num(rewrite->ops_per_sec / reference->ops_per_sec).c_str());
  }
  // The batch layer's parallel-scaling acceptance metric: 8-worker batch
  // throughput over the 1-worker batch on the same pool code path. Bounded
  // above by the host's core count — scripts/ci.sh enforces the floor only
  // on hosts that can physically express it.
  if (batch1 != nullptr && batch8 != nullptr && batch1->ops_per_sec > 0.0) {
    std::fprintf(f, ",\n  \"batch_scaling_8v1\": %s",
                 num(batch8->ops_per_sec / batch1->ops_per_sec).c_str());
  }
  // The facade acceptance metric: Engine-served batch throughput over the
  // direct HybridEstimator batch at the same worker count (the two series
  // are measured interleaved back to back). scripts/ci.sh gates this
  // >= 0.95 — the Engine may cost at most 5% over direct wiring.
  if (batch1 != nullptr && batch_direct1 != nullptr &&
      batch_direct1->ops_per_sec > 0.0) {
    std::fprintf(f, ",\n  \"engine_batch_vs_direct\": %s",
                 num(batch1->ops_per_sec / batch_direct1->ops_per_sec).c_str());
  }
  // Refresh headline numbers: the median cost of publishing one model
  // epoch (Engine::Swap end to end), and the tail-latency ratio of serving
  // under continuous swap churn over the steady-state control — the
  // zero-downtime acceptance pair.
  if (swap_publish != nullptr && swap_publish->iterations > 0) {
    std::fprintf(f, ",\n  \"swap_publish_seconds\": %s",
                 num(swap_publish->p50_ms / 1e3).c_str());
  }
  // Median cost of a PROBE-VERIFIED publish (Engine::Swap running K=8
  // golden probe queries against the candidate before the epoch flips).
  // Paired with swap_publish_seconds above; scripts/ci.sh gates the
  // verification overhead at <= 2x the plain swap.
  if (swap_verified != nullptr && swap_verified->iterations > 0) {
    std::fprintf(f, ",\n  \"swap_verified_publish_seconds\": %s",
                 num(swap_verified->p50_ms / 1e3).c_str());
  }
  // Compared at the highest tail level both series support.
  if (steady != nullptr && during_swap != nullptr) {
    const double level = std::min(steady->tail_level, during_swap->tail_level);
    if (level > 0.0 && steady->QuantileMs(level) > 0.0) {
      std::fprintf(f, ",\n  \"estimate_during_swap_tail_level\": %s",
                   num(level).c_str());
      std::fprintf(f, ",\n  \"estimate_during_swap_tail_vs_steady\": %s",
                   num(during_swap->QuantileMs(level) /
                       steady->QuantileMs(level))
                       .c_str());
    }
  }
  // Overload headline numbers: how far past its deadline a cancelled
  // estimate runs relative to the same query unconstrained (cooperative
  // cancellation checkpoints per chain part, so this must stay well under
  // 1.0; CI gates the median ratio < 0.5), and the median cost of shedding
  // one request at admission.
  if (deadline_base != nullptr && deadline_overshoot != nullptr &&
      deadline_base->p50_ms > 0.0) {
    std::fprintf(f, ",\n  \"deadline_overshoot_p50_ms\": %s",
                 num(deadline_overshoot->p50_ms).c_str());
    std::fprintf(
        f, ",\n  \"deadline_overshoot_p50_vs_estimate_p50\": %s",
        num(deadline_overshoot->p50_ms / deadline_base->p50_ms).c_str());
  }
  if (overload_shed != nullptr && overload_shed->iterations > 0) {
    std::fprintf(f, ",\n  \"overload_shed_p50_ms\": %s",
                 num(overload_shed->p50_ms).c_str());
  }
  // Routing headline: pruned DFS throughput over the plain DFS on the
  // interleaved bench OD set. The bench itself aborts on any quality
  // divergence (pruned on-time probability must equal plain bit for bit),
  // so a present pruned series certifies parity; scripts/ci.sh gates the
  // floor (>= 3x on the reference host, 10x aspirational).
  if (route_plain != nullptr && route_pruned != nullptr &&
      route_plain->ops_per_sec > 0.0) {
    std::fprintf(
        f, ",\n  \"route_speedup_pruned_vs_plain\": %s",
        num(route_pruned->ops_per_sec / route_plain->ops_per_sec).c_str());
  }
  // Sharded-serving headlines (ISSUE 10): front-door throughput on
  // single-shard-hit requests relative to the monolithic engine on the
  // SAME requests, interleaved back to back (the bench aborts on any
  // ExactlyEquals divergence, so a present ratio certifies bit-identical
  // answers), plus the resident-footprint record — the largest attached
  // shard next to the unsplit model. scripts/ci.sh gates the ratio
  // >= PCDE_CI_MIN_SHARDED_RATIO and the footprint strictly below the
  // monolith.
  if (sharded_est != nullptr && sharded_mono != nullptr &&
      sharded_mono->ops_per_sec > 0.0) {
    std::fprintf(
        f, ",\n  \"sharded_vs_mono\": %s",
        num(sharded_est->ops_per_sec / sharded_mono->ops_per_sec).c_str());
  }
  if (sharded != nullptr && sharded->num_shards > 0) {
    std::fprintf(f,
                 ",\n  \"sharded_num_shards\": %zu"
                 ",\n  \"sharded_resident_bytes_max_shard\": %zu"
                 ",\n  \"sharded_mono_resident_bytes\": %zu",
                 sharded->num_shards, sharded->resident_bytes_max_shard,
                 sharded->mono_resident_bytes);
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace bench
}  // namespace pcde
