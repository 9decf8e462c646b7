// Opt-in pruning knobs and the small lock-free helpers the pruned DFS
// shares across its root fan-out (src/routing/stochastic_router.cc).
//
// Every pruner here is sound under the same assumptions the baseline
// search already makes (admissible reverse-Dijkstra lower bounds,
// per-position unit-variable support minima): in a sequential search,
// incumbent and dominance pruning return exactly the same
// (path, probability) as the unpruned search (a pruned candidate provably
// cannot strictly beat the final best); cheap_first — a pure exploration
// reorder — and the parallel fan-out preserve the probability exactly but
// may resolve an exact probability tie to a different (equally good) path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace pcde {
namespace routing {

/// Which pruners the DFS runs. All default off: a default-constructed
/// config is bit-identical to the pre-pruning router.
struct PruningOptions {
  /// Share the best-so-far arrival probability across root branches and
  /// cut any extension whose optimistic arrival-probability upper bound
  /// (prefix CDF at budget − lower_bound[v]) cannot beat it.
  bool incumbent = false;
  /// Per-vertex frontier of nondominated prefix-cost CDF sketches; a
  /// prefix whose optimistic CDF is dominated by a stored pessimistic
  /// CDF with a subset visited-set is cut (first-order stochastic
  /// dominance — every completion available to the loser is available to
  /// the winner, at no worse arrival probability).
  bool dominance = false;
  /// Order out-edges by lower_bound[to] so cheap completions (and thus
  /// strong incumbents) are found early. Pure exploration-order change.
  bool cheap_first = false;

  bool any() const { return incumbent || dominance || cheap_first; }
};

/// Monotone shared maximum of arrival probabilities. Relaxed ordering is
/// enough: the value only ever grows, and a stale read merely prunes less.
class SharedIncumbent {
 public:
  double Load() const { return best_.load(std::memory_order_relaxed); }

  void Update(double p) {
    double cur = best_.load(std::memory_order_relaxed);
    while (p > cur &&
           !best_.compare_exchange_weak(cur, p, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<double> best_{0.0};
};

/// Per-branch strided reservation against the shared expansion budget:
/// instead of one fetch_add per DFS node, a branch grabs `stride` slots at
/// a time and consumes them locally. Total consumed across branches for a
/// non-truncated search equals the plain per-node count; a truncated
/// search remains an anytime cutoff (run-to-run variable), exactly as the
/// baseline documents.
class ExpansionBudget {
 public:
  ExpansionBudget(std::atomic<size_t>* cursor, size_t max_expansions,
                  size_t stride)
      : cursor_(cursor),
        max_(max_expansions),
        stride_(stride == 0 ? 1 : stride) {}

  /// Returns false when the global budget is exhausted (caller truncates).
  bool TryConsume() {
    if (available_ == 0) {
      const size_t r = cursor_->fetch_add(stride_, std::memory_order_relaxed);
      if (r >= max_) return false;
      available_ = std::min(stride_, max_ - r);
    }
    --available_;
    ++consumed_;
    return true;
  }

  /// Expansions actually performed by this branch (reserved-but-unused
  /// slots are not counted, so summing consumed() over branches gives the
  /// true expansion count).
  size_t consumed() const { return consumed_; }

 private:
  std::atomic<size_t>* cursor_;
  size_t max_;
  size_t stride_;
  size_t available_ = 0;
  size_t consumed_ = 0;
};

}  // namespace routing
}  // namespace pcde
