// Tests for persistence: graph CSV, matched-trajectory CSV, and weight
// function serialization round-trips, plus GHG-emission cost support end
// to end (the paper's second cost type).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/estimator.h"
#include "core/instantiation.h"
#include "core/serialization.h"
#include "roadnet/generators.h"
#include "roadnet/io.h"
#include "traj/generator.h"
#include "traj/io.h"
#include "traj/store.h"

namespace pcde {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class IoTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }
  std::string Track(std::string p) {
    cleanup_.push_back(p);
    return p;
  }
  std::vector<std::string> cleanup_;
};

// ---------------------------------------------------------------------------
// Graph CSV
// ---------------------------------------------------------------------------

TEST_F(IoTest, GraphRoundTrip) {
  const roadnet::Graph g = roadnet::MakeCity(roadnet::CityAConfig());
  const std::string path = Track(TempPath("pcde_graph.csv"));
  ASSERT_TRUE(roadnet::SaveGraphCsv(g, path).ok());
  auto loaded = roadnet::LoadGraphCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().NumVertices(), g.NumVertices());
  ASSERT_EQ(loaded.value().NumEdges(), g.NumEdges());
  for (size_t i = 0; i < g.NumEdges(); ++i) {
    const auto& a = g.edge(i);
    const auto& b = loaded.value().edge(i);
    EXPECT_EQ(a.from, b.from);
    EXPECT_EQ(a.to, b.to);
    EXPECT_NEAR(a.length_m, b.length_m, 1e-6);
    EXPECT_NEAR(a.speed_limit_mps, b.speed_limit_mps, 1e-9);
    EXPECT_EQ(a.road_class, b.road_class);
  }
  for (size_t i = 0; i < g.NumVertices(); ++i) {
    EXPECT_NEAR(g.vertex(i).x, loaded.value().vertex(i).x, 1e-6);
  }
}

TEST_F(IoTest, GraphLoadRejectsGarbage) {
  const std::string path = Track(TempPath("pcde_bad_graph.csv"));
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("V,0,0,0\nE,0,0,7,100,13.9,0\n", f);  // unknown endpoint 7
    std::fclose(f);
  }
  EXPECT_FALSE(roadnet::LoadGraphCsv(path).ok());
  EXPECT_FALSE(roadnet::LoadGraphCsv("/nonexistent/graph.csv").ok());
}

TEST_F(IoTest, GraphLoadRejectsOutOfOrderIds) {
  const std::string path = Track(TempPath("pcde_ooo_graph.csv"));
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("V,1,0,0\n", f);  // must start at 0
    std::fclose(f);
  }
  EXPECT_FALSE(roadnet::LoadGraphCsv(path).ok());
}

// ---------------------------------------------------------------------------
// Matched trajectory CSV
// ---------------------------------------------------------------------------

TEST_F(IoTest, TrajectoryRoundTrip) {
  traj::Dataset ds = traj::MakeDatasetA(50);
  const auto original = ds.MatchedSlice(1.0);
  const std::string path = Track(TempPath("pcde_trips.csv"));
  ASSERT_TRUE(traj::SaveMatchedCsv(original, path).ok());
  auto loaded = traj::LoadMatchedCsv(*ds.graph, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.value()[i].id, original[i].id);
    EXPECT_EQ(loaded.value()[i].path, original[i].path);
    ASSERT_EQ(loaded.value()[i].NumEdges(), original[i].NumEdges());
    for (size_t d = 0; d < original[i].NumEdges(); ++d) {
      EXPECT_NEAR(loaded.value()[i].edge_travel_seconds[d],
                  original[i].edge_travel_seconds[d], 1e-6);
      EXPECT_NEAR(loaded.value()[i].edge_emission_grams[d],
                  original[i].edge_emission_grams[d], 1e-6);
    }
  }
}

TEST_F(IoTest, TrajectoryLoadValidatesPaths) {
  traj::Dataset ds = traj::MakeDatasetA(5);
  const std::string path = Track(TempPath("pcde_bad_trips.csv"));
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    // Edges 0 and 2 are unlikely to be adjacent in the generated city;
    // use two copies of edge 0 which is definitely invalid (revisit).
    std::fputs("1,0,100,10,5\n1,0,110,10,5\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(traj::LoadMatchedCsv(*ds.graph, path).ok());
}

// ---------------------------------------------------------------------------
// Weight function serialization
// ---------------------------------------------------------------------------

TEST_F(IoTest, WeightFunctionRoundTrip) {
  traj::Dataset ds = traj::MakeDatasetA(2000);
  traj::TrajectoryStore store(ds.MatchedSlice(1.0));
  core::HybridParams params;
  params.beta = 15;
  const core::PathWeightFunction wp =
      core::InstantiateWeightFunction(*ds.graph, store, params);

  const std::string path = Track(TempPath("pcde_wp.txt"));
  ASSERT_TRUE(core::SaveWeightFunction(wp, path).ok());
  // v2 text embeds the binning; no caller-supplied alpha.
  auto loaded = core::LoadWeightFunction(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().binning().alpha_seconds(),
            wp.binning().alpha_seconds());
  EXPECT_EQ(loaded.value().fingerprint(), wp.fingerprint());
  ASSERT_EQ(loaded.value().NumVariables(), wp.NumVariables());
  EXPECT_EQ(loaded.value().CountByRank(false), wp.CountByRank(false));
  EXPECT_EQ(loaded.value().MemoryUsageBytes(), wp.MemoryUsageBytes());

  // Every original variable must be recoverable with identical content.
  size_t checked = 0;
  for (const auto& v : wp.variables()) {
    const auto* lv = loaded.value().Lookup(v.path, v.interval);
    ASSERT_NE(lv, nullptr);
    EXPECT_EQ(lv->support, v.support);
    EXPECT_EQ(lv->from_speed_limit, v.from_speed_limit);
    EXPECT_EQ(lv->joint.NumBuckets(), v.joint.NumBuckets());
    EXPECT_NEAR(lv->joint.DifferentialEntropy(),
                v.joint.DifferentialEntropy(), 1e-9);
    if (++checked >= 200) break;  // spot check
  }

  // Queries through the reloaded function match the original.
  core::HybridEstimator est_orig{wp};
  core::HybridEstimator est_loaded{loaded.value()};
  for (const auto& trip : ds.trips) {
    if (trip.truth.path.size() < 5) continue;
    const roadnet::Path q = trip.truth.path.Slice(0, 5);
    auto a = est_orig.EstimateCostDistribution(q, trip.truth.DepartureTime());
    auto b =
        est_loaded.EstimateCostDistribution(q, trip.truth.DepartureTime());
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_LT(hist::L1Distance(a.value(), b.value()), 1e-9);
    break;
  }
}

TEST_F(IoTest, WeightFunctionLoadRejectsGarbage) {
  const std::string path = Track(TempPath("pcde_bad_wp.txt"));
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("BINNING,30\nVAR,16,40,0,2,1,2\nDIM,0,1\nHB,1.0,0,0\n",
               f);  // 1 DIM, rank 2
    std::fclose(f);
  }
  EXPECT_FALSE(core::LoadWeightFunction(path).ok());
  EXPECT_FALSE(core::LoadWeightFunction("/nonexistent/wp.txt").ok());
}

TEST_F(IoTest, TextV1IsRejected) {
  // A v1-era file (no BINNING record) does not say which binning its
  // variables were built with, so it is a clean load-time error.
  const std::string v1 = Track(TempPath("pcde_wp_v1.txt"));
  {
    std::FILE* f = std::fopen(v1.c_str(), "w");
    std::fputs("# pcde weight function v1\nVAR,16,40,0,1,3\nDIM,20,30\n"
               "HB,1,0\n", f);
    std::fclose(f);
  }
  auto loaded = core::LoadWeightFunction(v1);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("text v1"), std::string::npos)
      << loaded.status().ToString();
}

// ---------------------------------------------------------------------------
// GHG emissions cost type (the paper's second travel cost)
// ---------------------------------------------------------------------------

TEST(EmissionCostTest, InstantiationAndQueryOnEmissions) {
  traj::Dataset ds = traj::MakeDatasetA(3000);
  traj::TrajectoryStore store(ds.MatchedSlice(1.0));
  core::HybridParams params;
  params.beta = 15;
  params.cost_type = traj::CostType::kEmissionGrams;
  const core::PathWeightFunction wp =
      core::InstantiateWeightFunction(*ds.graph, store, params);
  const auto counts = wp.CountByRank(false);
  ASSERT_TRUE(counts.count(1));
  EXPECT_GT(counts.at(1), 10u);

  // Query a data-covered window and compare against realized emissions.
  core::HybridEstimator od{wp};
  for (const auto& trip : ds.trips) {
    if (trip.truth.path.size() < 4) continue;
    const roadnet::Path q = trip.truth.path.Slice(0, 4);
    auto dist = od.EstimateCostDistribution(q, trip.truth.DepartureTime());
    ASSERT_TRUE(dist.ok());
    EXPECT_GT(dist.value().Mean(), 0.0);
    // The emission surrogate is tens of grams per edge at this scale.
    EXPECT_LT(dist.value().Mean(), 5000.0);
    break;
  }
}

}  // namespace
}  // namespace pcde
