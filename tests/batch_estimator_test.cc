// Concurrency tests for the batch layer, serving::Engine::EstimateBatch:
// the parallel batch must match the sequential estimator result-for-result
// (estimation is read-only over the weight function), and the kRandom
// policy must stay deterministic per query under any worker count. The
// same fixture model also carries the decomposition differential: the
// candidate array's rows, sized by the longest variable of their edge, and
// the O(1) sub-path elimination select exactly what the quadratic
// reference below selects.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/scoped_file.h"
#include "core/estimator.h"
#include "core/instantiation.h"
#include "core/decomposition.h"
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

// ---------------------------------------------------------------------------
// Decomposition differential
// ---------------------------------------------------------------------------

/// The candidate array and sub-path elimination as first written: every
/// row n - k ranks wide (capped by rank_cap), and a new part checked
/// against every kept part. The reference the production builder must
/// match selection for selection.
namespace reference {

StatusOr<CandidateArray> BuildCandidateArray(const ModelView& view,
                                             const roadnet::Path& query,
                                             double departure_time,
                                             size_t rank_cap) {
  if (query.empty()) {
    return Status::InvalidArgument("BuildCandidateArray: empty query path");
  }
  CandidateArray array;
  array.query = query;
  array.departure_time = departure_time;
  array.rows.resize(query.size());
  const TimeBinning binning = view.binning();
  Interval window(departure_time, departure_time);
  for (size_t k = 0; k < query.size(); ++k) {
    CandidateRow& row = array.rows[k];
    row.departure_window = window;
    const size_t max_rank =
        rank_cap > 0 ? std::min(rank_cap, query.size() - k) : query.size() - k;
    row.by_rank.assign(max_rank, nullptr);
    std::vector<double> best_overlap(max_rank, 0.0);
    for (const InstantiatedVariable* v : view.StartingAt(query[k])) {
      const size_t r = v->rank();
      if (r == 0 || r > max_rank) continue;
      bool spatial = true;
      for (size_t d = 0; d < r; ++d) {
        if (v->path[d] != query[k + d]) {
          spatial = false;
          break;
        }
      }
      if (!spatial) continue;
      double overlap;
      if (v->interval == kAllDayInterval) {
        overlap = 1e-12;
      } else {
        const Interval ij = binning.IntervalOf(v->interval);
        overlap = window.width() > 0.0 ? window.OverlapRatioOf(ij)
                                       : (ij.Contains(window.lo) ? 1.0 : 0.0);
      }
      if (overlap > best_overlap[r - 1]) {
        best_overlap[r - 1] = overlap;
        row.by_rank[r - 1] = v;
      }
    }
    if (row.by_rank[0] == nullptr) {
      return Status::FailedPrecondition("no unit variable");
    }
    const InstantiatedVariable* unit = row.by_rank[0];
    window = Interval(window.lo + unit->joint.DimRange(0).lo,
                      window.hi + unit->joint.DimRange(0).hi);
  }
  return array;
}

void AppendIfNotContained(Decomposition* de, DecompositionPart part) {
  for (const DecompositionPart& p : *de) {
    if (p.start <= part.start && part.end() <= p.end()) return;
  }
  de->push_back(part);
}

Decomposition Coarsest(const CandidateArray& array) {
  Decomposition de;
  for (size_t k = 0; k < array.rows.size(); ++k) {
    const InstantiatedVariable* v = array.rows[k].Highest();
    if (v != nullptr) AppendIfNotContained(&de, DecompositionPart{v, k});
  }
  return de;
}

Decomposition Random(const CandidateArray& array, Rng* rng) {
  Decomposition de;
  for (size_t k = 0; k < array.rows.size(); ++k) {
    std::vector<const InstantiatedVariable*> available;
    for (const InstantiatedVariable* v : array.rows[k].by_rank) {
      if (v != nullptr) available.push_back(v);
    }
    if (available.empty()) continue;
    const InstantiatedVariable* v = available[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(available.size()) - 1))];
    AppendIfNotContained(&de, DecompositionPart{v, k});
  }
  return de;
}

Decomposition PairwiseChain(const CandidateArray& array) {
  Decomposition de;
  for (size_t k = 0; k < array.rows.size(); ++k) {
    const CandidateRow& row = array.rows[k];
    const InstantiatedVariable* pair =
        row.by_rank.size() >= 2 ? row.by_rank[1] : nullptr;
    const InstantiatedVariable* v = pair != nullptr ? pair : row.by_rank[0];
    if (v != nullptr) AppendIfNotContained(&de, DecompositionPart{v, k});
  }
  return de;
}

Decomposition UnitChain(const CandidateArray& array) {
  Decomposition de;
  for (size_t k = 0; k < array.rows.size(); ++k) {
    const InstantiatedVariable* v = array.rows[k].by_rank[0];
    if (v != nullptr) de.push_back(DecompositionPart{v, k});
  }
  return de;
}

}  // namespace reference

/// (variable id, start) per part: the decomposition's identity.
std::vector<std::pair<uint32_t, size_t>> Identity(const Decomposition& de) {
  std::vector<std::pair<uint32_t, size_t>> out;
  for (const DecompositionPart& part : de) {
    out.emplace_back(part.variable->id, part.start);
  }
  return out;
}

/// (rank, variable id) of every non-null candidate of a row.
std::vector<std::pair<size_t, uint32_t>> Candidates(const CandidateRow& row) {
  std::vector<std::pair<size_t, uint32_t>> out;
  for (size_t r = 0; r < row.by_rank.size(); ++r) {
    if (row.by_rank[r] != nullptr) out.emplace_back(r + 1, row.by_rank[r]->id);
  }
  return out;
}

/// A simple path of up to `cardinality` edges that follows the fixture's
/// traffic: it starts on the first edge of a random trip and takes each
/// successor with probability proportional to its traversal count plus
/// one, so long paths run over the model's joint variables. It stops short
/// when every successor would revisit a vertex.
roadnet::Path TrafficFollowingPath(const roadnet::Graph& g,
                                   const TrajectoryStore& store,
                                   size_t cardinality, Rng* rng) {
  const traj::MatchedTrajectory* trip = nullptr;
  while (trip == nullptr || trip->path.empty()) {
    trip = &store.trajectory(static_cast<size_t>(rng->UniformInt(
        0, static_cast<int64_t>(store.NumTrajectories()) - 1)));
  }
  std::vector<roadnet::EdgeId> edges{trip->path[0]};
  std::vector<bool> visited(g.NumVertices(), false);
  visited[g.edge(edges[0]).from] = true;
  visited[g.edge(edges[0]).to] = true;
  std::vector<roadnet::EdgeId> next;
  std::vector<double> weights;
  while (edges.size() < cardinality) {
    next.clear();
    weights.clear();
    for (roadnet::EdgeId e : g.OutEdges(g.edge(edges.back()).to)) {
      if (visited[g.edge(e).to]) continue;
      next.push_back(e);
      weights.push_back(1.0 +
                        static_cast<double>(store.EdgeOccurrenceCount(e)));
    }
    if (next.empty()) break;
    const roadnet::EdgeId e = next[rng->Categorical(weights)];
    edges.push_back(e);
    visited[g.edge(e).to] = true;
  }
  return roadnet::Path(std::move(edges));
}

TEST_F(BatchFixture, LinearCandidateRowsSelectWhatFullRowsSelect) {
  const roadnet::Graph& g = *dataset_->graph;
  const ModelView view(*wp_);
  const DecompositionBuilder builder(view);
  Rng rng(20240607);
  constexpr size_t kCases = 2000;
  size_t longest = 0;
  size_t multi_edge_parts = 0;
  for (size_t i = 0; i < kCases; ++i) {
    // Lengths cycle through 1..100 edges; a walk that runs into visited
    // vertices stops short.
    const roadnet::Path query =
        TrafficFollowingPath(g, *store_, 1 + i % 100, &rng);
    ASSERT_TRUE(roadnet::ValidatePath(g, query.edges()).ok());
    longest = std::max(longest, query.size());
    // Departures over the whole day, on and off bucket boundaries.
    const double departure =
        i % 4 == 0 ? 300.0 * static_cast<double>(rng.UniformInt(0, 287))
                   : rng.Uniform(0.0, 86400.0);
    for (const size_t cap : {size_t{0}, size_t{2}, size_t{3}}) {
      SCOPED_TRACE("case " + std::to_string(i) + " rank_cap " +
                   std::to_string(cap));
      auto want = reference::BuildCandidateArray(view, query, departure, cap);
      auto got = builder.BuildCandidateArray(query, departure, cap);
      ASSERT_EQ(got.ok(), want.ok());
      if (!got.ok()) {
        EXPECT_EQ(got.status().code(), want.status().code());
        continue;
      }
      const CandidateArray& a = got.value();
      const CandidateArray& b = want.value();
      ASSERT_EQ(a.rows.size(), b.rows.size());
      for (size_t k = 0; k < a.rows.size(); ++k) {
        EXPECT_LE(a.rows[k].by_rank.size(), b.rows[k].by_rank.size());
        EXPECT_EQ(Candidates(a.rows[k]), Candidates(b.rows[k])) << "row " << k;
        EXPECT_EQ(a.rows[k].departure_window.lo,
                  b.rows[k].departure_window.lo);
        EXPECT_EQ(a.rows[k].departure_window.hi,
                  b.rows[k].departure_window.hi);
      }
      const Decomposition coarsest = DecompositionBuilder::Coarsest(a);
      EXPECT_EQ(Identity(coarsest), Identity(reference::Coarsest(b)));
      EXPECT_TRUE(DecompositionBuilder::Validate(coarsest, query).ok());
      for (const DecompositionPart& part : coarsest) {
        multi_edge_parts += part.rank() > 1 ? 1 : 0;
      }
      Rng got_rng(i * 3 + cap);
      Rng want_rng(i * 3 + cap);
      EXPECT_EQ(Identity(DecompositionBuilder::Random(a, &got_rng)),
                Identity(reference::Random(b, &want_rng)));
      EXPECT_EQ(Identity(DecompositionBuilder::PairwiseChain(a)),
                Identity(reference::PairwiseChain(b)));
      EXPECT_EQ(Identity(DecompositionBuilder::UnitChain(a)),
                Identity(reference::UnitChain(b)));
    }
  }
  // The cases reach the long paths and the joint variables they are for.
  EXPECT_GE(longest, 80u);
  EXPECT_GT(multi_edge_parts, kCases);
}

}  // namespace
}  // namespace core
}  // namespace pcde
