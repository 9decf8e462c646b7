// Parameters of the hybrid graph (Table 2 of the paper) and the
// time-of-day binning defined by the finest interval alpha.
#pragma once

#include <cmath>
#include <cstdint>

#include "common/interval.h"
#include "hist/voptimal.h"
#include "traj/types.h"

namespace pcde {
namespace core {

/// \brief Paper parameters with the paper's default values in bold in
/// Table 2: alpha = 30 min, beta = 30.
struct HybridParams {
  double alpha_minutes = 30.0;  // finest time interval of interest
  size_t beta = 30;             // qualified-trajectory threshold

  /// Cap on the cardinality of instantiated paths (rank). The paper keeps
  /// instantiating "until longer paths cannot be obtained"; the cap bounds
  /// the apriori scan and matches the paper's observation that ranks above
  /// ~4 are rare (Fig. 10).
  size_t max_instantiated_rank = 8;

  /// Histogram construction (Sec. 3.1): Auto bucket-count options.
  hist::AutoBucketOptions bucket_options;

  /// Spread of the speed-limit fallback distribution for unit paths with
  /// fewer than beta trajectories: one bucket spanning
  /// [(1-s)*t_limit, (1+s)*t_limit).
  double speed_limit_spread = 0.15;

  traj::CostType cost_type = traj::CostType::kTravelTimeSeconds;
};

/// Sentinel interval id for speed-limit fallback variables, which are valid
/// at any time of day.
constexpr int32_t kAllDayInterval = -1;

/// \brief Maps times of day to the alpha-sized interval grid.
class TimeBinning {
 public:
  explicit TimeBinning(double alpha_minutes)
      : alpha_seconds_(alpha_minutes * 60.0) {}

  int32_t IndexOf(double time_s) const {
    return static_cast<int32_t>(std::floor(time_s / alpha_seconds_));
  }

  Interval IntervalOf(int32_t index) const {
    return Interval(index * alpha_seconds_, (index + 1) * alpha_seconds_);
  }

  int32_t NumIntervals() const {
    return static_cast<int32_t>(
        std::ceil(traj::kSecondsPerDay / alpha_seconds_));
  }

  double alpha_seconds() const { return alpha_seconds_; }

 private:
  double alpha_seconds_;
};

}  // namespace core
}  // namespace pcde
