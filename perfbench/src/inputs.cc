#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "roadnet/generators.h"
#include "roadnet/shortest_path.h"

namespace perfbench {

using pcde::Rng;
using pcde::roadnet::EdgeId;
using pcde::roadnet::Graph;
using pcde::roadnet::Path;
using pcde::roadnet::VertexId;

namespace {

constexpr double kBucketSeconds = 300.0;  // the engine's cache time bucket
constexpr size_t kBucketsPerDay = 288;

// Stream ids of StreamSeed, one per independent input.
enum Stream : uint64_t {
  kTripStream = 1,
  kColdStream,
  kHotStream,
  kRouteStream,
  kProbeStream,
};

/// Random simple path of exactly `cardinality` edges that follows traffic:
/// it starts on an edge some base trip used and picks each successor with
/// probability proportional to its traversal count (plus one), so long
/// queries run over instantiated variables rather than speed-limit priors.
bool DataBiasedPath(const Dataset& data, size_t cardinality, Rng* rng,
                    Path* out) {
  const Graph& g = *data.graph;
  const pcde::traj::TrajectoryStore& store = data.base_store;
  for (int attempt = 0; attempt < 400; ++attempt) {
    const auto& trip = store.trajectory(static_cast<size_t>(rng->UniformInt(
        0, static_cast<int64_t>(store.NumTrajectories()) - 1)));
    if (trip.path.empty()) continue;
    std::vector<EdgeId> edges{trip.path[0]};
    std::set<VertexId> visited{g.edge(edges[0]).from, g.edge(edges[0]).to};
    std::vector<EdgeId> next;
    std::vector<double> weights;
    while (edges.size() < cardinality) {
      next.clear();
      weights.clear();
      for (EdgeId e : g.OutEdges(g.edge(edges.back()).to)) {
        if (visited.count(g.edge(e).to) != 0) continue;
        next.push_back(e);
        weights.push_back(1.0 +
                          static_cast<double>(store.EdgeOccurrenceCount(e)));
      }
      if (next.empty()) break;
      const EdgeId e = next[rng->Categorical(weights)];
      edges.push_back(e);
      visited.insert(g.edge(e).to);
    }
    if (edges.size() == cardinality) {
      *out = Path(std::move(edges));
      return true;
    }
  }
  return false;
}

std::vector<Path> DataBiasedPaths(const Dataset& data, size_t count,
                                  size_t min_edges, size_t max_edges,
                                  Rng* rng) {
  std::vector<Path> paths;
  paths.reserve(count);
  while (paths.size() < count) {
    const auto cardinality = static_cast<size_t>(rng->UniformInt(
        static_cast<int64_t>(min_edges), static_cast<int64_t>(max_edges)));
    Path path;
    if (DataBiasedPath(data, cardinality, rng, &path)) {
      paths.push_back(std::move(path));
    }
  }
  return paths;
}

/// Requests over `pool` in which every (path, departure bucket) pair is
/// new: departures follow the trips' own departure mixture, and a drawn
/// bucket already used for the path moves to the next free one.
PathRequests UniqueBucketRequests(const Dataset& data, size_t pool_size,
                                  size_t count, Rng* rng) {
  std::vector<std::vector<bool>> used(pool_size,
                                      std::vector<bool>(kBucketsPerDay));
  std::vector<uint32_t> order(pool_size);
  for (size_t i = 0; i < pool_size; ++i) order[i] = static_cast<uint32_t>(i);
  rng->Shuffle(&order);
  PathRequests requests;
  requests.path.reserve(count);
  requests.departure.reserve(count);
  for (size_t j = 0; j < count; ++j) {
    const uint32_t path = order[j % pool_size];
    const double drawn = data.generator->SampleDeparture(rng);
    const double within = std::fmod(drawn, kBucketSeconds);
    size_t bucket = static_cast<size_t>(std::floor(drawn / kBucketSeconds)) %
                    kBucketsPerDay;
    size_t probes = 0;
    while (used[path][bucket] && probes++ < kBucketsPerDay) {
      bucket = (bucket + 1) % kBucketsPerDay;
    }
    used[path][bucket] = true;
    requests.path.push_back(path);
    requests.departure.push_back(static_cast<double>(bucket) * kBucketSeconds +
                                 within);
  }
  return requests;
}

/// An OD pair spanning `min_edges..max_edges` consecutive edges of a random
/// base trip, so pairs follow where the data is.
bool TripSpan(const Dataset& data, size_t min_edges, size_t max_edges,
              Rng* rng, VertexId* from, VertexId* to) {
  const auto& store = data.base_store;
  const auto& trip = store.trajectory(static_cast<size_t>(rng->UniformInt(
      0, static_cast<int64_t>(store.NumTrajectories()) - 1)));
  if (trip.path.size() < min_edges) return false;
  const size_t longest = std::min(max_edges, trip.path.size());
  const auto span = static_cast<size_t>(rng->UniformInt(
      static_cast<int64_t>(min_edges), static_cast<int64_t>(longest)));
  const auto start = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(trip.path.size() - span)));
  *from = data.graph->edge(trip.path[start]).from;
  *to = data.graph->edge(trip.path[start + span - 1]).to;
  return *from != *to;
}

}  // namespace

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
               0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

pcde::core::HybridParams ModelParams() {
  pcde::core::HybridParams params;
  params.beta = kBeta;
  return params;
}

Dataset MakeDataset(uint64_t seed) {
  Dataset data;
  data.graph = std::make_unique<Graph>(
      pcde::roadnet::MakeCity(pcde::roadnet::CityAConfig()));
  pcde::traj::TrafficConfig traffic;
  traffic.seed = kTrafficSeed;
  data.traffic =
      std::make_unique<pcde::traj::TrafficModel>(*data.graph, traffic);
  pcde::traj::GeneratorConfig demand;
  demand.num_trips = kBaseTrips + kDeltaTrips;
  demand.sampling_interval_s = 1.0;
  demand.seed = kDemandSeed;
  data.generator =
      std::make_unique<pcde::traj::TrajectoryGenerator>(*data.traffic, demand);
  // The demand fixes each trip's route and departure; the seed draws the
  // costs the trip observed along it.
  Rng rng(StreamSeed(seed, kTripStream));
  const std::vector<pcde::traj::GeneratedTrip> trips =
      data.generator->GenerateAll();
  for (size_t i = 0; i < trips.size(); ++i) {
    const pcde::traj::MatchedTrajectory& planned = trips[i].truth;
    pcde::traj::MatchedTrajectory observed =
        data.generator
            ->GenerateOnPath(planned.path, planned.DepartureTime(), &rng)
            .truth;
    observed.id = planned.id;
    (i < kBaseTrips ? data.base : data.delta).push_back(std::move(observed));
  }
  data.base_store = pcde::traj::TrajectoryStore(data.base);
  return data;
}

ColdInputs MakeColdInputs(const Dataset& data, uint64_t seed, size_t clients,
                          size_t requests_per_client, size_t warmup_requests) {
  constexpr size_t kPathsPerClient = 6000;
  Rng rng(StreamSeed(seed, kColdStream));
  ColdInputs in;
  for (size_t c = 0; c < clients; ++c) {
    in.pools.push_back(DataBiasedPaths(data, kPathsPerClient, 10, 80, &rng));
    in.requests.push_back(UniqueBucketRequests(data, kPathsPerClient,
                                               requests_per_client, &rng));
  }
  const size_t warmup_paths = std::max<size_t>(warmup_requests / 4, 1);
  in.warmup_pool = DataBiasedPaths(data, warmup_paths, 10, 80, &rng);
  in.warmup =
      UniqueBucketRequests(data, warmup_paths, warmup_requests, &rng);
  return in;
}

HotInputs MakeHotInputs(const Dataset& data, uint64_t seed, size_t clients,
                        size_t pool_size, size_t requests_per_client) {
  Rng rng(StreamSeed(seed, kHotStream));
  HotInputs in;
  std::set<std::pair<VertexId, VertexId>> seen;
  while (in.pool.size() < pool_size) {
    OdQuery q;
    if (!TripSpan(data, 16, 24, &rng, &q.from, &q.to)) continue;
    if (!seen.insert({q.from, q.to}).second) continue;
    q.departure = data.generator->SampleDeparture(&rng);
    q.budget = 1.3 * pcde::roadnet::ShortestPathCost(
                           *data.graph, q.from, q.to,
                           pcde::roadnet::FreeFlowWeight(*data.graph));
    in.pool.push_back(q);
  }
  // Zipf over popularity ranks; ranks map to pool entries through a seeded
  // permutation, so popularity is unrelated to generation order. The
  // exponent keeps the top entry near 4% of requests, so the mean cost does
  // not hinge on which few OD pairs a seed makes most popular.
  constexpr double kZipfExponent = 0.7;
  std::vector<double> cdf(pool_size);
  double total = 0.0;
  for (size_t r = 0; r < pool_size; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    cdf[r] = total;
  }
  std::vector<uint32_t> entry_of_rank(pool_size);
  for (size_t r = 0; r < pool_size; ++r) {
    entry_of_rank[r] = static_cast<uint32_t>(r);
  }
  rng.Shuffle(&entry_of_rank);
  for (size_t c = 0; c < clients; ++c) {
    std::vector<uint32_t> stream;
    stream.reserve(requests_per_client);
    for (size_t j = 0; j < requests_per_client; ++j) {
      const double u = rng.Uniform() * total;
      const size_t rank = std::min<size_t>(
          static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                              cdf.begin()),
          pool_size - 1);
      stream.push_back(entry_of_rank[rank]);
    }
    in.streams.push_back(std::move(stream));
  }
  return in;
}

std::vector<OdQuery> MakeProbes(const Dataset& data, size_t count) {
  // Drawn from the fixed demand, not from the run's seed: the probes are
  // part of the deployment's refresh set-up, and a probe that misses the
  // cache costs what its path costs, so seed-drawn probes would move the
  // swap's verification cost with the seed.
  Rng rng(StreamSeed(kDemandSeed, kProbeStream));
  std::vector<OdQuery> probes;
  while (probes.size() < count) {
    OdQuery q;
    if (!TripSpan(data, 16, 16, &rng, &q.from, &q.to)) continue;
    // Fixed departures spread over the day: at rush hour a probe that
    // misses the cache costs up to twice as much.
    q.departure = (static_cast<double>(probes.size()) + 0.5) * 86400.0 /
                  static_cast<double>(count);
    q.budget = 1.3 * pcde::roadnet::ShortestPathCost(
                         *data.graph, q.from, q.to,
                         pcde::roadnet::FreeFlowWeight(*data.graph));
    probes.push_back(q);
  }
  return probes;
}

std::vector<RouteCase> MakeRouteCases(const Dataset& data, uint64_t seed,
                                      size_t count, size_t passes) {
  // Budgets at a few multiples of the free-flow time, off-peak. At rush
  // hour a budget below ~1.5 x free-flow cannot be made on some cases (the
  // router answers NotFound), while budgets above ~1.4 x let the searches of
  // a few cases grow a hundredfold, so their share of a run's time depends
  // on the seed. Off-peak, budgets near free-flow keep the on-time
  // probability away from 1 and every search short.
  constexpr double kBudgetFactors[] = {1.0, 1.1, 1.2};
  // Off-peak departure buckets (5 minutes): 10:30-15:00 and 19:30-22:00.
  std::vector<size_t> off_peak;
  for (size_t b = 126; b < 180; ++b) off_peak.push_back(b);
  for (size_t b = 234; b < 264; ++b) off_peak.push_back(b);
  const Graph& g = *data.graph;
  Rng rng(StreamSeed(seed, kRouteStream));
  std::vector<RouteCase> cases;
  std::set<std::pair<VertexId, VertexId>> seen;
  while (cases.size() < count) {
    RouteCase rc;
    if (!TripSpan(data, 5, 8, &rng, &rc.from, &rc.to)) continue;
    if (!seen.insert({rc.from, rc.to}).second) continue;
    rc.budget = kBudgetFactors[cases.size() % 3] *
                pcde::roadnet::ShortestPathCost(
                    g, rc.from, rc.to, pcde::roadnet::FreeFlowWeight(g));
    std::vector<size_t> buckets = off_peak;
    rng.Shuffle(&buckets);
    for (size_t p = 0; p < passes; ++p) {
      rc.departures.push_back(
          static_cast<double>(buckets[p % buckets.size()]) * kBucketSeconds +
          rng.Uniform(0.0, kBucketSeconds));
    }
    cases.push_back(std::move(rc));
  }
  return cases;
}

std::vector<Window> MakeWindows(const Dataset& data) {
  constexpr size_t kCardinalities[] = {2, 3, 4, 5, 6};
  constexpr size_t kPerCardinality = 32;
  const pcde::core::TimeBinning binning(ModelParams().alpha_minutes);
  const auto& store = data.base_store;
  struct Group {
    uint32_t count = 0;
    uint32_t trip = 0;  // first occurrence
    uint32_t pos = 0;
  };
  std::vector<Window> windows;
  for (size_t k : kCardinalities) {
    // Occurrences per (sub-path, interval), keyed by a 64-bit hash; only
    // trips that entered the sub-path from a previous edge count.
    std::unordered_map<uint64_t, Group> groups;
    for (size_t t = 0; t < store.NumTrajectories(); ++t) {
      const auto& trip = store.trajectory(t);
      for (size_t pos = 1; pos + k <= trip.path.size(); ++pos) {
        uint64_t key = StreamSeed(
            static_cast<uint64_t>(binning.IndexOf(trip.edge_enter_times[pos])),
            k);
        for (size_t d = 0; d < k; ++d) key = StreamSeed(key, trip.path[pos + d]);
        Group& g = groups[key];
        if (g.count++ == 0) {
          g.trip = static_cast<uint32_t>(t);
          g.pos = static_cast<uint32_t>(pos);
        }
      }
    }
    std::vector<std::pair<uint64_t, Group>> covered;
    for (const auto& [key, g] : groups) {
      if (g.count >= kBeta) covered.emplace_back(key, g);
    }
    // The best-covered windows, in a seed-independent order.
    std::sort(covered.begin(), covered.end(), [](const auto& a, const auto& b) {
      return a.second.count != b.second.count ? a.second.count > b.second.count
                                              : a.first < b.first;
    });
    if (covered.size() > kPerCardinality) covered.resize(kPerCardinality);
    for (const auto& [key, g] : covered) {
      const auto& trip = store.trajectory(g.trip);
      Path path(std::vector<EdgeId>(trip.path.begin() + g.pos,
                                    trip.path.begin() + g.pos + k));
      const int32_t interval = binning.IndexOf(trip.edge_enter_times[g.pos]);
      windows.push_back(Window{
          std::move(path),
          binning.IntervalOf(interval).lo + 0.5 * binning.alpha_seconds(),
          trip.path[g.pos - 1]});
    }
  }
  return windows;
}

}  // namespace perfbench
