// Seeded inputs of the serving benchmark. Everything a run feeds the
// program — the road network, the traffic process, both trip batches, the
// request streams, the route cases and the accuracy windows — is derived
// from the one --seed argument through the library's public generators
// (roadnet::MakeCity, traj::TrafficModel, traj::TrajectoryGenerator), so
// one seed always gives one input set. Generation is never timed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/params.h"
#include "roadnet/graph.h"
#include "roadnet/path.h"
#include "traj/generator.h"
#include "traj/store.h"
#include "traj/traffic_model.h"

namespace perfbench {

// The deployment is fixed: the city-A-sized network, its traffic process and
// the trip demand (routes and departure times) never change. The seed draws
// everything observed and asked: every trip's travel costs, which trips form
// the delta batch's routes, the request streams, the route cases, the
// accuracy windows and the oracle's samples. Letting the seed move the
// demand's hubs instead swings the model between ~560 and ~1500 joint
// variables, so spreads across seeds would measure the dataset, not the
// program.
inline constexpr uint64_t kDemandSeed = 5;
inline constexpr uint64_t kTrafficSeed = 11;
// Scale. The model is built three times per run (setup_s is a median), so
// the data is sized for a ~1.5 s build; the 2000-trip delta batch qualifies
// new joint variables at beta = 20 and so changes the model fingerprint.
inline constexpr size_t kBaseTrips = 3000;
inline constexpr size_t kDeltaTrips = 2000;
inline constexpr size_t kBeta = 20;

/// Derives an independent stream seed from the run seed (splitmix64).
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// The road network, its traffic process and the two trip batches.
struct Dataset {
  std::unique_ptr<pcde::roadnet::Graph> graph;
  std::unique_ptr<pcde::traj::TrafficModel> traffic;
  std::unique_ptr<pcde::traj::TrajectoryGenerator> generator;
  std::vector<pcde::traj::MatchedTrajectory> base;   // generation 1
  std::vector<pcde::traj::MatchedTrajectory> delta;  // folded into gen. 2
  /// Index over `base`, used only to draw inputs (edge popularity, OD
  /// pairs, well-covered windows); setup builds its own store.
  pcde::traj::TrajectoryStore base_store;
};

Dataset MakeDataset(uint64_t seed);

pcde::core::HybridParams ModelParams();

/// Explicit-path requests of `path_cold`: request j asks for pool path
/// `path[j]`, departing at `departure[j]`.
struct PathRequests {
  std::vector<uint32_t> path;
  std::vector<double> departure;
};

/// The `path_cold` inputs: per client, a pool of data-biased paths of
/// 10-80 edges and a request list over it in which every (path, 5-minute
/// departure bucket) pair occurs once. Warm-up draws from its own pool, so
/// no measured request can hit a warm-up entry.
struct ColdInputs {
  std::vector<std::vector<pcde::roadnet::Path>> pools;      // per client
  std::vector<PathRequests> requests;                       // per client
  std::vector<pcde::roadnet::Path> warmup_pool;
  PathRequests warmup;
};

ColdInputs MakeColdInputs(const Dataset& data, uint64_t seed, size_t clients,
                          size_t requests_per_client, size_t warmup_requests);

/// One OD query of `od_hot_refresh` (also the golden probes).
struct OdQuery {
  pcde::roadnet::VertexId from = 0;
  pcde::roadnet::VertexId to = 0;
  double departure = 0.0;
  double budget = 0.0;
};

/// The `od_hot_refresh` inputs: a fixed pool of OD queries taken from trip
/// sub-spans, and per client a Zipf-skewed stream of pool indices.
struct HotInputs {
  std::vector<OdQuery> pool;
  std::vector<std::vector<uint32_t>> streams;  // per client
};

HotInputs MakeHotInputs(const Dataset& data, uint64_t seed, size_t clients,
                        size_t pool_size, size_t requests_per_client);

/// Golden-probe queries for verified swaps: OD pairs exactly 16 edges
/// apart on the fixed demand's trips, departing at fixed times spread
/// evenly over the day. They are the same for every seed, so the swap's
/// verification work is too.
std::vector<OdQuery> MakeProbes(const Dataset& data, size_t count);

/// One budget-routing case: an OD pair from a trip sub-span with a budget
/// at a multiple of its free-flow time. Pass p departs off-peak at
/// departures[p], in a 5-minute bucket no other pass of the case uses, so
/// no pass replays another pass's cached searches.
struct RouteCase {
  pcde::roadnet::VertexId from = 0;
  pcde::roadnet::VertexId to = 0;
  double budget = 0.0;
  std::vector<double> departures;
};

std::vector<RouteCase> MakeRouteCases(const Dataset& data, uint64_t seed,
                                      size_t count, size_t passes);

/// A well-covered window for the accuracy oracle: a sub-path whose (path,
/// interval) has at least beta qualified trajectories, queried at the middle
/// of that interval. `previous_edge` is an edge trips entered it by.
struct Window {
  pcde::roadnet::Path path;
  double departure = 0.0;
  pcde::roadnet::EdgeId previous_edge = 0;
};

/// The 32 best-covered windows of each cardinality 2-6. The set depends on
/// the seed only through the trips' observed costs, so accuracy_kl compares
/// models on nearly the same windows across seeds.
std::vector<Window> MakeWindows(const Dataset& data);

}  // namespace perfbench
