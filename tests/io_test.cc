// Tests for persistence: graph CSV and matched-trajectory CSV round trips,
// the weight-function loader's rejection of foreign and missing files (its
// round trips live in model_artifact_test), plus GHG-emission cost support
// end to end (the paper's second cost type).
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

TEST_F(IoTest, WeightFunctionLoadRejectsGarbage) {
  // Not a PCDEWF1 artifact (a CSV-like record stream): a content error
  // through both load paths, never a crash. A missing file is NotFound.
  const std::string path = Track(TempPath("pcde_bad_wp.bin"));
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("BINNING,30\nVAR,16,40,0,2,1,2\nDIM,0,1\nHB,1.0,0,0\n"
               "# padded past the 64-byte artifact header\n",
               f);
    std::fclose(f);
  }
  for (bool use_mmap : {false, true}) {
    SCOPED_TRACE(use_mmap ? "mmap" : "buffered");
    EXPECT_EQ(core::LoadWeightFunctionBinary(path, use_mmap).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(core::LoadWeightFunctionBinary("/nonexistent/wp.bin", use_mmap)
                  .status()
                  .code(),
              StatusCode::kNotFound);
  }
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
