// The candidate variables the estimator and the router read, over one
// frozen model or over the shards of a PCDEMF1 manifest (core/shard_writer).
//
// The estimator consults a model through four questions only: the time
// binning, the variables whose path starts at an edge (StartingAt), the
// unit variable of an edge for a departure window, and an identity to key
// its query cache with. Every variable lives in the shard owning its front
// edge, and that shard holds the whole candidate row of the edge in the
// monolithic order, so a view over a manifest's shards answers all four
// exactly as the unsplit model would: a path crossing shard boundaries
// runs the ordinary decomposition, bit-identical to the single model.
//
// A view is two pointers and copies for free; it owns nothing. A
// single-model view keys the query cache exactly as the model itself does
// (its fingerprint, then bare frozen variable ids); a manifest view keys
// with the manifest fingerprint and variable ids tagged with their shard.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/shard_writer.h"
#include "core/weight_function.h"

namespace pcde {
namespace core {

/// \brief The shards of one manifest generation a view serves from: one
/// slot per manifest shard, holding the shard's loaded model or null while
/// the shard is not attached.
struct ShardSet {
  std::shared_ptr<const ShardManifest> manifest;
  std::vector<std::shared_ptr<const PathWeightFunction>> models;
};

class ModelView {
 public:
  /// A view of one frozen model (implicit: a model passes wherever a view
  /// is expected). The model must outlive the view.
  ModelView(const PathWeightFunction& model) : model_(&model) {}  // NOLINT
  /// A view of a manifest's shards. The set must outlive the view, and
  /// every query must name an edge whose owning shard is attached.
  explicit ModelView(const ShardSet& shards) : shards_(&shards) {}

  TimeBinning binning() const {
    return model_ != nullptr
               ? model_->binning()
               : TimeBinning(shards_->manifest->alpha_seconds / 60.0);
  }

  /// The generation identity: the model's fingerprint, or the manifest's.
  uint64_t fingerprint() const {
    return model_ != nullptr ? model_->fingerprint()
                             : shards_->manifest->fingerprint;
  }

  /// PathWeightFunction::StartingAt on the model owning `e`.
  VariableList StartingAt(roadnet::EdgeId e) const {
    return Owner(e).StartingAt(e);
  }

  /// PathWeightFunction::UnitVariable on the model owning `e`.
  const InstantiatedVariable* UnitVariable(roadnet::EdgeId e,
                                           const Interval& window) const {
    return Owner(e).UnitVariable(e, window);
  }

  /// The id QueryCache keys carry for `v`, one of this view's variables:
  /// the frozen id itself for a single model, and for a manifest the
  /// owning shard's index in the high 32 bits (ids are unique only within
  /// a shard).
  uint64_t KeyId(const InstantiatedVariable& v) const {
    if (model_ != nullptr) return v.id;
    return (uint64_t{static_cast<uint32_t>(
                shards_->manifest->ShardOf(v.path.front()))}
            << 32) |
           v.id;
  }

 private:
  const PathWeightFunction& Owner(roadnet::EdgeId e) const {
    return model_ != nullptr ? *model_ : AttachedShard(e);
  }
  /// The attached shard owning `e`; aborts when it is not attached (the
  /// caller broke the residency contract, and answering from a partial
  /// view would silently degrade the estimate).
  const PathWeightFunction& AttachedShard(roadnet::EdgeId e) const {
    const size_t s = shards_->manifest->ShardOf(e);
    const PathWeightFunction* model = shards_->models[s].get();
    if (model == nullptr) {
      std::fprintf(stderr, "ModelView: shard %zu (edge %llu) is not attached\n",
                   s, static_cast<unsigned long long>(e));
      std::abort();
    }
    return *model;
  }

  const PathWeightFunction* model_ = nullptr;
  const ShardSet* shards_ = nullptr;
};

}  // namespace core
}  // namespace pcde
