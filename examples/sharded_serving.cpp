// Sharded serving end to end: build one model from trajectories, compile
// it into two per-region shards plus a PCDEMF1 manifest with
// core::WriteModelShards, open the manifest through serving::Engine, and
// serve the same OD batch from the manifest and from the monolithic model
// side by side. Every answer — whether its resolved path stays inside one
// shard or crosses the boundary — must be bit-identical to the monolithic
// engine's (CostSummary::ExactlyEquals) and carry the manifest
// fingerprint, and one budget route must match field for field. The
// per-shard resident footprint must come in strictly below the monolithic
// model. Any divergence exits nonzero, so this example doubles as a CI
// gate.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/scoped_file.h"
#include "common/stopwatch.h"
#include "core/instantiation.h"
#include "core/shard_writer.h"
#include "serving/engine.h"
#include "roadnet/shortest_path.h"
#include "traj/generator.h"
#include "traj/store.h"

int main() {
  using namespace pcde;
  std::printf("sharded serving: build -> split -> open manifest -> serve\n\n");

  // 1. One model from one trajectory batch, exactly as a monolithic deploy
  //    would build it.
  traj::Dataset city = traj::MakeDatasetA(1200);
  const traj::TrajectoryStore store(city.MatchedSlice(1.0));
  core::HybridParams params;
  params.beta = 8;
  Stopwatch watch;
  core::WeightFunctionBuilder builder{core::TimeBinning(params.alpha_minutes)};
  if (!core::InstantiateIntoBuilder(*city.graph, store, params, &builder)
           .ok()) {
    std::printf("instantiation failed\n");
    return 1;
  }
  auto frozen = std::move(builder).TryFreeze();
  if (!frozen.ok()) {
    std::printf("freeze failed: %s\n", frozen.status().ToString().c_str());
    return 1;
  }
  core::PathWeightFunction model = std::move(frozen).value();
  std::printf("model: %zu variables (model %016llx) in %.1f s\n",
              model.NumVariables(),
              static_cast<unsigned long long>(model.fingerprint()),
              watch.ElapsedSeconds());

  // 2. Compile the model into two shards plus a manifest. Shard files are
  //    flat siblings of the manifest; every write is atomic + durable, the
  //    manifest last, so a crash mid-split never publishes a torn set.
  const std::string manifest_path =
      MakeTempArtifactPath("pcde_sharded_example", ".pcdemf");
  core::ShardWriteOptions split_options;
  split_options.num_shards = 2;
  split_options.file_prefix =
      "pcde_sharded_example." + std::to_string(::getpid());
  watch.Restart();
  auto split = core::WriteModelShards(model, manifest_path, split_options);
  if (!split.ok()) {
    std::printf("shard split failed: %s\n",
                split.status().ToString().c_str());
    return 1;
  }
  const core::ShardManifest manifest = std::move(split).value();
  const ScopedFileRemover manifest_cleanup(manifest_path);
  const std::string shard_dir =
      std::filesystem::path(manifest_path).parent_path().string();
  std::vector<std::unique_ptr<ScopedFileRemover>> shard_cleanup;
  std::printf("split into %zu shards (manifest %016llx) in %.1f ms:\n",
              manifest.shards.size(),
              static_cast<unsigned long long>(manifest.fingerprint),
              watch.ElapsedSeconds() * 1e3);
  for (const core::ShardInfo& shard : manifest.shards) {
    shard_cleanup.push_back(std::make_unique<ScopedFileRemover>(
        shard_dir + "/" + shard.file));
    std::printf("  keys [%llu, %llu]  %6.2f MB  %s\n",
                static_cast<unsigned long long>(shard.key_lo),
                static_cast<unsigned long long>(shard.key_hi),
                static_cast<double>(shard.bytes) / (1024.0 * 1024.0),
                shard.file.c_str());
  }

  // 3. The engine opens the manifest like any model artifact (shards attach
  //    when a request first needs them); the monolithic reference adopts
  //    the same model.
  serving::EngineOptions sharded_options;
  sharded_options.model_path = manifest_path;
  sharded_options.graph = city.graph.get();
  // One thread each: the route comparison below then runs the sequential
  // search, whose every counter is deterministic.
  sharded_options.num_threads = 1;
  auto opened = serving::Engine::Open(sharded_options);
  if (!opened.ok()) {
    std::printf("Engine::Open on the manifest failed: %s\n",
                opened.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<serving::Engine> sharded = std::move(opened).value();
  serving::EngineOptions mono_options;
  mono_options.graph = city.graph.get();
  mono_options.num_threads = 1;
  auto mono_opened = serving::Engine::Open(std::move(model), mono_options);
  if (!mono_opened.ok()) {
    std::printf("monolithic Engine::Open failed: %s\n",
                mono_opened.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<serving::Engine> mono = std::move(mono_opened).value();

  // 4. One OD batch through both engines. Requests are classified by where
  //    their resolved path falls relative to the shard boundary; both
  //    classes must occur or the comparison proves nothing, and both must
  //    answer exactly as the monolithic model does.
  const double depart = 8 * 3600.0;
  size_t in_shard = 0, cross_shard = 0;
  for (size_t v = 0; v + 41 < city.graph->NumVertices(); v += 7) {
    for (const size_t span : {size_t{17}, size_t{41}}) {
      serving::EstimateRequest request;
      request.path = serving::PathSpec::OdPair(
          static_cast<roadnet::VertexId>(v),
          static_cast<roadnet::VertexId>(v + span));
      request.departure_time = depart;
      auto resolved = sharded->ResolvePath(request.path);
      if (!resolved.ok() || resolved.value().size() < 2) continue;
      const roadnet::Path& path = resolved.value();
      const size_t owner = manifest.ShardOf(path[0]);
      bool crosses = false;
      for (size_t i = 1; i < path.size(); ++i) {
        if (manifest.ShardOf(path[i]) != owner) crosses = true;
      }

      auto served = sharded->Estimate(request);
      auto expected = mono->Estimate(request);
      if (!served.ok() || !expected.ok()) {
        std::printf("estimate failed: sharded %s / mono %s\n",
                    served.status().ToString().c_str(),
                    expected.status().ToString().c_str());
        return 1;
      }
      const serving::EstimateResponse& got = served.value();
      const serving::EstimateResponse& want = expected.value();
      if (got.model_fingerprint != manifest.fingerprint) {
        std::printf("sharded response lost the manifest fingerprint\n");
        return 1;
      }
      if (!got.summary.ExactlyEquals(want.summary)) {
        std::printf("%s OD %zu->%zu diverged from monolithic\n",
                    crosses ? "cross-shard" : "in-shard", v, v + span);
        return 1;
      }
      ++(crosses ? cross_shard : in_shard);
    }
  }
  if (in_shard == 0 || cross_shard == 0) {
    std::printf("batch did not exercise both classes (%zu in-shard, %zu "
                "cross-shard)\n",
                in_shard, cross_shard);
    return 1;
  }
  std::printf(
      "served %zu in-shard and %zu cross-shard ODs bit-identically (%llu "
      "shard attaches)\n",
      in_shard, cross_shard,
      static_cast<unsigned long long>(sharded->stats().shard_attaches));

  // 5. Routing reads shards along every path it explores: one budget route
  //    across the boundary must match the monolithic search field for
  //    field. Sampled travel beats free flow, so 0.95x the free-flow time
  //    leaves a real on-time probability.
  serving::RouteRequest route;
  route.from = 343;
  route.to = 384;
  route.departure_time = depart;
  route.budget_seconds =
      0.95 * roadnet::ShortestPathCost(*city.graph, route.from, route.to,
                                       roadnet::FreeFlowWeight(*city.graph));
  auto routed = sharded->Route(route);
  auto mono_routed = mono->Route(route);
  if (!routed.ok() || !mono_routed.ok()) {
    std::printf("route failed: sharded %s / mono %s\n",
                routed.status().ToString().c_str(),
                mono_routed.status().ToString().c_str());
    return 1;
  }
  if (routed->best_path.edges() != mono_routed->best_path.edges() ||
      routed->on_time_probability != mono_routed->on_time_probability ||
      routed->expansions != mono_routed->expansions ||
      routed->estimator_clones != mono_routed->estimator_clones) {
    std::printf("route %u->%u diverged from monolithic\n", route.from,
                route.to);
    return 1;
  }
  std::vector<size_t> route_shards;
  for (roadnet::EdgeId e : routed->best_path.edges()) {
    route_shards.push_back(manifest.ShardOf(e));
  }
  std::sort(route_shards.begin(), route_shards.end());
  const size_t crossed = static_cast<size_t>(
      std::unique(route_shards.begin(), route_shards.end()) -
      route_shards.begin());
  std::printf("route %u->%u: P(on time) %.4f over %zu edges in %zu "
              "shard(s), %zu expansions, same as monolithic\n",
              route.from, route.to, routed->on_time_probability,
              routed->best_path.size(), crossed, routed->expansions);

  // 6. The point of sharding: no single process ever holds the whole
  //    model. The largest resident shard must undercut the monolithic
  //    footprint strictly.
  const std::vector<size_t> shard_bytes = sharded->ResidentShardBytes();
  size_t max_shard = 0;
  size_t resident = 0;
  for (size_t bytes : shard_bytes) {
    max_shard = std::max(max_shard, bytes);
    resident += bytes > 0 ? 1 : 0;
  }
  const size_t mono_bytes = mono->model().ResidentBytes();
  if (resident < shard_bytes.size() || max_shard >= mono_bytes) {
    std::printf("footprint gate failed: max shard %zu B vs monolithic %zu B "
                "(%zu/%zu shards resident)\n",
                max_shard, mono_bytes, resident, shard_bytes.size());
    return 1;
  }
  std::printf("footprint: max resident shard %.2f MB vs monolithic %.2f MB\n",
              static_cast<double>(max_shard) / (1024.0 * 1024.0),
              static_cast<double>(mono_bytes) / (1024.0 * 1024.0));
  return 0;
}
