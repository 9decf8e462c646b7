// Concurrency tests for the batch layer, serving::Engine::EstimateBatch:
// the parallel batch must match the sequential estimator result-for-result
// (estimation is read-only over the weight function), and the kRandom
// policy must stay deterministic per query under any worker count.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "common/scoped_file.h"
#include "core/estimator.h"
#include "core/instantiation.h"
#include "core/serialization.h"
#include "serving/engine.h"
#include "traj/generator.h"
#include "traj/store.h"

namespace pcde {
namespace core {
namespace {

using hist::Histogram1D;
using traj::TrajectoryStore;

class BatchFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Small dataset: the point is concurrency coverage, not statistics.
    dataset_ = new traj::Dataset(traj::MakeDatasetA(3000));
    HybridParams params;
    params.beta = 10;
    store_ = new TrajectoryStore(dataset_->MatchedSlice(1.0));
    wp_ = new PathWeightFunction(
        InstantiateWeightFunction(*dataset_->graph, *store_, params));
    artifact_ = MakeTempArtifactPath("pcde_batch_test");
    ASSERT_TRUE(SaveWeightFunctionBinary(*wp_, artifact_).ok());
  }
  static void TearDownTestSuite() {
    std::remove(artifact_.c_str());
    delete wp_;
    delete store_;
    delete dataset_;
    wp_ = nullptr;
    store_ = nullptr;
    dataset_ = nullptr;
  }

  /// Requests drawn from instantiated variables (so decompositions are
  /// nontrivial), departing inside each variable's interval.
  static std::vector<serving::EstimateRequest> MakeRequests(size_t limit) {
    std::vector<serving::EstimateRequest> requests;
    for (const InstantiatedVariable& v : wp_->variables()) {
      if (v.from_speed_limit) continue;
      const Interval ij = wp_->binning().IntervalOf(v.interval);
      serving::EstimateRequest request;
      request.path = serving::PathSpec::ExplicitPath(v.path);
      request.departure_time = ij.lo + 60.0;
      request.want_distribution = true;
      requests.push_back(std::move(request));
      if (requests.size() >= limit) break;
    }
    return requests;
  }

  /// A cacheless engine over the saved model, so every batch response is
  /// computed, not replayed.
  static std::unique_ptr<serving::Engine> OpenEngine(
      size_t num_threads, EstimateOptions estimate = EstimateOptions()) {
    serving::EngineOptions options;
    options.model_path = artifact_;
    options.estimate = estimate;
    options.num_threads = num_threads;
    options.query_cache_bytes = 0;
    auto engine = serving::Engine::Open(std::move(options));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? std::move(engine).value() : nullptr;
  }

  static traj::Dataset* dataset_;
  static TrajectoryStore* store_;
  static PathWeightFunction* wp_;
  static std::string artifact_;
};

traj::Dataset* BatchFixture::dataset_ = nullptr;
TrajectoryStore* BatchFixture::store_ = nullptr;
PathWeightFunction* BatchFixture::wp_ = nullptr;
std::string BatchFixture::artifact_;

void ExpectSameResult(const StatusOr<serving::EstimateResponse>& got,
                      const StatusOr<Histogram1D>& want, size_t i) {
  ASSERT_EQ(got.ok(), want.ok()) << "query " << i;
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << "query " << i;
    return;
  }
  ASSERT_TRUE(got.value().distribution.has_value()) << "query " << i;
  EXPECT_TRUE(got.value().distribution->BitIdentical(want.value()))
      << "query " << i;
}

TEST_F(BatchFixture, BatchMatchesSequentialResultForResult) {
  auto engine = OpenEngine(/*num_threads=*/4);
  ASSERT_NE(engine, nullptr);
  const HybridEstimator estimator(engine->model());
  const std::vector<serving::EstimateRequest> requests = MakeRequests(60);
  ASSERT_GE(requests.size(), 20u);

  const auto batch = engine->EstimateBatch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto sequential = estimator.EstimateCostDistribution(
        requests[i].path.edges, requests[i].departure_time);
    ExpectSameResult(batch[i], sequential, i);
  }
}

TEST_F(BatchFixture, RandomPolicyBatchIsDeterministicPerQuery) {
  // The kRandom policy seeds its Rng from the query path, so the batch
  // must be reproducible run-to-run even under concurrency.
  EstimateOptions options;
  options.policy = DecompositionPolicy::kRandom;
  auto four = OpenEngine(/*num_threads=*/4, options);
  auto two = OpenEngine(/*num_threads=*/2, options);
  ASSERT_NE(four, nullptr);
  ASSERT_NE(two, nullptr);
  const std::vector<serving::EstimateRequest> requests = MakeRequests(20);
  const auto a = four->EstimateBatch(requests);
  const auto b = two->EstimateBatch(requests);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].ok(), b[i].ok()) << "query " << i;
    if (!a[i].ok()) continue;
    EXPECT_TRUE(a[i].value().distribution->BitIdentical(
        *b[i].value().distribution))
        << "query " << i;
  }
}

}  // namespace
}  // namespace core
}  // namespace pcde
